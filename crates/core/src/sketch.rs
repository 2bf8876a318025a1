//! The public facade: a trained **learned sketch** (encoder + model) with
//! one-call construction from a data graph and workload, plus the full
//! active-learning loop of §5 (ALSS = LSS + AL).

use crate::active::{select_batch, Strategy};
use crate::encode::{EncodedQuery, Encoder, EncodingKind};
use crate::json::{
    array_of, f32_of, field, finite_f32_of, float, object, optional_field, uint, uint_of,
    variant_of,
};
use crate::model::{Aggregator, LssConfig, LssModel, Prediction};
use crate::parallel::Parallelism;
use crate::train::{
    encode_workload_with, finetune_model, train_model, EncodedItem, TrainConfig, TrainReport,
};
use crate::workload::Workload;
use alss_embedding::prone::ProneConfig;
use alss_graph::Graph;
use alss_nn::{Aggregation, Mat};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

/// End-to-end configuration for building a sketch.
#[derive(Clone, Copy, Debug)]
pub struct SketchConfig {
    /// Node-encoding variant (LSS-fre / LSS-emb / LSS-con).
    pub encoding: EncodingKind,
    /// BFS-tree decomposition depth (paper: 3).
    pub hops: u32,
    /// Model architecture.
    pub model: LssConfig,
    /// Training schedule.
    pub train: TrainConfig,
    /// ProNE pre-training settings (embedding encodings only).
    pub prone_dim: usize,
    /// Seed for initialization and pre-training.
    pub seed: u64,
}

impl Default for SketchConfig {
    fn default() -> Self {
        SketchConfig {
            encoding: EncodingKind::Embedding,
            hops: 3,
            model: LssConfig::default(),
            train: TrainConfig::default(),
            prone_dim: 64,
            seed: 42,
        }
    }
}

impl SketchConfig {
    /// Small/fast settings for tests and examples.
    pub fn tiny() -> Self {
        SketchConfig {
            encoding: EncodingKind::Frequency,
            hops: 3,
            model: LssConfig::tiny(),
            train: TrainConfig::quick(30),
            prone_dim: 16,
            seed: 7,
        }
    }
}

/// A trained learned sketch: everything needed to answer
/// `estimate(query) → count`.
///
/// A checkpoint holds what the sketch cannot derive and nothing else: the
/// `encoder` (`kind`, `stats`, `label_embedding`, `hops`) and the
/// `model`'s config and weights (`cfg`, `store.values`). Loading rebuilds
/// the layers from the config and the encoder's feature widths
/// ([`LssModel::from_weights`]) and fails, naming the field, on a weight
/// that does not fit them; other keys, such as the layer wiring older
/// checkpoints also stored, are not read.
#[derive(Clone)]
pub struct LearnedSketch {
    encoder: Encoder,
    model: LssModel,
}

/// The checkpoint's name for each [`Aggregator`].
fn aggregator_name(a: Aggregator) -> &'static str {
    match a {
        Aggregator::Attention => "Attention",
        Aggregator::SumPool => "SumPool",
    }
}

/// The checkpoint's name for each [`Aggregation`].
fn aggregation_name(a: Aggregation) -> &'static str {
    match a {
        Aggregation::Sum => "Sum",
        Aggregation::Mean => "Mean",
    }
}

/// `model.cfg` as a checkpoint stores it, in field order.
fn config_to_json(cfg: &LssConfig) -> Value {
    object([
        ("hidden", uint(cfg.hidden)),
        ("gnn_layers", uint(cfg.gnn_layers)),
        ("dropout", float(cfg.dropout)),
        ("att_hidden", uint(cfg.att_hidden)),
        ("att_heads", uint(cfg.att_heads)),
        ("mlp_hidden", uint(cfg.mlp_hidden)),
        ("num_classes", uint(cfg.num_classes)),
        ("lambda", float(cfg.lambda)),
        (
            "aggregator",
            Value::Str(aggregator_name(cfg.aggregator).to_string()),
        ),
        (
            "gnn_aggregation",
            Value::Str(aggregation_name(cfg.gnn_aggregation).to_string()),
        ),
    ])
}

/// `model.cfg` of checkpoint `v`. `dropout` and `lambda` must be finite;
/// a checkpoint without `aggregator` or `gnn_aggregation` gets the
/// paper's choice.
fn config_from_json(v: &Value) -> Result<LssConfig, String> {
    let size = |key: &str| field(v, &format!("model.cfg.{key}"), uint_of);
    Ok(LssConfig {
        hidden: size("hidden")?,
        gnn_layers: size("gnn_layers")?,
        dropout: field(v, "model.cfg.dropout", finite_f32_of)?,
        att_hidden: size("att_hidden")?,
        att_heads: size("att_heads")?,
        mlp_hidden: size("mlp_hidden")?,
        num_classes: size("num_classes")?,
        lambda: field(v, "model.cfg.lambda", finite_f32_of)?,
        aggregator: optional_field(v, "model.cfg.aggregator", |x| {
            variant_of(
                x,
                &[Aggregator::Attention, Aggregator::SumPool],
                aggregator_name,
            )
        })?
        .unwrap_or_default(),
        gnn_aggregation: optional_field(v, "model.cfg.gnn_aggregation", |x| {
            variant_of(x, &[Aggregation::Sum, Aggregation::Mean], aggregation_name)
        })?
        .unwrap_or_default(),
    })
}

/// A weight matrix as a checkpoint stores it: `rows`, `cols` and the
/// row-major `data`.
fn mat_to_json(m: &Mat) -> Value {
    object([
        ("rows", uint(m.rows())),
        ("cols", uint(m.cols())),
        (
            "data",
            Value::Array(m.data().iter().map(|&x| float(x)).collect()),
        ),
    ])
}

/// A weight matrix written by [`mat_to_json`]. `data` must hold exactly
/// `rows × cols` values, so a corrupted checkpoint fails to load instead
/// of panicking at its first use. A value past `f32`'s range reads as an
/// infinity, which the parameter store then rejects, naming the layer.
fn mat_from_json(v: &Value) -> Result<Mat, String> {
    let rows: usize = field(v, "rows", uint_of)?;
    let cols: usize = field(v, "cols", uint_of)?;
    let data = field(v, "data", |x| array_of(x, f32_of))?;
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(format!(
            "a {rows}×{cols} matrix holds {} values",
            data.len()
        ));
    }
    Ok(Mat::from_vec(rows, cols, data))
}

impl LearnedSketch {
    /// Reassemble a sketch from a pre-built encoder and model (e.g. one
    /// trained by hand, layer call by layer call).
    pub fn from_parts(encoder: Encoder, model: LssModel) -> Self {
        LearnedSketch { encoder, model }
    }

    /// The whole sketch (encoder statistics, pre-trained label embedding,
    /// model config and weights) as JSON: `{"encoder": …, "model":
    /// {"cfg": …, "store": {"values": […]}}}`.
    pub fn to_json(&self) -> String {
        let values = self.model.store().values().iter().map(mat_to_json);
        serde_json::to_string(&object([
            ("encoder", self.encoder.to_json()),
            (
                "model",
                object([
                    ("cfg", config_to_json(self.model.config())),
                    (
                        "store",
                        object([("values", Value::Array(values.collect()))]),
                    ),
                ]),
            ),
        ]))
    }

    /// Read a sketch saved with [`LearnedSketch::to_json`], or by an older
    /// version that also stored the layers' wiring. An error names the
    /// offending field: `encoder: label_embedding[1]: …`,
    /// `model.cfg.lambda: …`, `model.store.values[12] (lss.mlp.l1.w): …`.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let v = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let encoder = field(&v, "encoder", Encoder::from_json)?;
        let cfg = config_from_json(&v)?;
        if cfg.gnn_layers == 0 {
            return Err("model.cfg.gnn_layers: 0, the GIN needs a layer".to_string());
        }
        let values = field(&v, "model.store.values", |x| array_of(x, mat_from_json))?;
        let model = LssModel::from_weights(cfg, encoder.node_dim(), encoder.edge_dim(), values)
            .map_err(|e| format!("model.store.{e}"))?;
        Ok(LearnedSketch { encoder, model })
    }

    /// Persist the sketch to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load a sketch persisted with [`LearnedSketch::save`].
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Build the encoder for a data graph per the configuration.
    pub fn build_encoder(data: &Graph, cfg: &SketchConfig) -> Encoder {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let prone = ProneConfig {
            dim: cfg.prone_dim,
            ..Default::default()
        };
        match cfg.encoding {
            EncodingKind::Frequency => Encoder::frequency(data, cfg.hops),
            EncodingKind::Embedding => Encoder::embedding(data, cfg.hops, &prone, &mut rng),
            EncodingKind::Concatenated => Encoder::concatenated(data, cfg.hops, &prone, &mut rng),
        }
    }

    /// Train a sketch offline on a labeled workload (Fig. 1's left side).
    pub fn train(data: &Graph, workload: &Workload, cfg: &SketchConfig) -> (Self, TrainReport) {
        let encoder = Self::build_encoder(data, cfg);
        Self::train_with_encoder(encoder, workload, cfg)
    }

    /// Train with a pre-built encoder (lets callers share one embedding
    /// pre-training across several models, as the ensemble baseline does).
    pub fn train_with_encoder(
        encoder: Encoder,
        workload: &Workload,
        cfg: &SketchConfig,
    ) -> (Self, TrainReport) {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5EED);
        let mut model = LssModel::new(cfg.model, encoder.node_dim(), encoder.edge_dim(), &mut rng);
        let items = encode_workload_with(&encoder, workload, Parallelism::auto());
        let report = train_model(&mut model, &items, &cfg.train);
        (LearnedSketch { encoder, model }, report)
    }

    /// The feature encoder.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// The underlying model.
    pub fn model(&self) -> &LssModel {
        &self.model
    }

    /// Mutable model access (active learning).
    pub fn model_mut(&mut self) -> &mut LssModel {
        &mut self.model
    }

    /// Encode a query for repeated prediction.
    pub fn encode(&self, q: &Graph) -> EncodedQuery {
        self.encoder.encode_query(q)
    }

    /// Full prediction (count + magnitude posterior).
    pub fn predict(&self, q: &Graph) -> Prediction {
        self.model.predict(&self.encode(q))
    }

    /// Estimated count `ĉ(q)` in linear scale (≥ 1), for scoring: `+inf`
    /// when the prediction has no finite count ([`Prediction::count`] is
    /// `None`), which [`q_error`](crate::q_error) scores as the worst
    /// error. To report a count, read [`LearnedSketch::predict`]'s.
    pub fn estimate(&self, q: &Graph) -> f64 {
        self.predict(q).count().unwrap_or(f64::INFINITY)
    }
}

/// One unlabeled pool item of the active learner.
pub struct PoolItem {
    /// The raw query graph (handed to the labeling oracle).
    pub graph: Graph,
    /// Its cached encoding.
    pub encoded: EncodedQuery,
}

/// Outcome of one AL round.
#[derive(Debug, Clone)]
pub struct ActiveRoundReport {
    /// Queries selected and labeled this round.
    pub labeled: usize,
    /// Queries the oracle could not label (budget) — dropped from the pool.
    pub dropped: usize,
    /// Fine-tuning report.
    pub train: TrainReport,
}

/// Run one uncertainty-sampling round (§5 steps ①–④): score the pool,
/// sample `budget` queries, label them with `oracle`, move them into
/// `train_items`, and fine-tune the model on the enlarged training set.
#[expect(
    clippy::too_many_arguments,
    reason = "the §5 loop genuinely has this arity"
)]
pub fn active_round<R: Rng>(
    sketch: &mut LearnedSketch,
    train_items: &mut Vec<EncodedItem>,
    pool: &mut Vec<PoolItem>,
    mut oracle: impl FnMut(&Graph) -> Option<u64>,
    strategy: Strategy,
    budget: usize,
    finetune: &TrainConfig,
    round: u64,
    rng: &mut R,
) -> ActiveRoundReport {
    let encoded: Vec<EncodedQuery> = pool.iter().map(|p| p.encoded.clone()).collect();
    let mut selected = select_batch(
        &sketch.model,
        &encoded,
        strategy,
        budget,
        rng,
        Parallelism::auto(),
    );
    selected.sort_unstable_by(|a, b| b.cmp(a)); // remove from the back
    let mut labeled = 0usize;
    let mut dropped = 0usize;
    for idx in selected {
        let item = pool.swap_remove(idx);
        match oracle(&item.graph) {
            Some(count) => {
                train_items.push((item.encoded, count));
                labeled += 1;
            }
            None => {
                dropped += 1;
            }
        }
    }
    let train = finetune_model(&mut sketch.model, train_items, finetune, round);
    ActiveRoundReport {
        labeled,
        dropped,
        train,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::LabeledQuery;
    use alss_graph::builder::graph_from_edges;
    use alss_matching::{count_homomorphisms, Budget};

    fn data_graph() -> Graph {
        graph_from_edges(
            &[0, 0, 1, 1, 2, 2],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 3)],
        )
    }

    fn real_workload(data: &Graph) -> Workload {
        // label real path/triangle queries with exact counts
        let mut qs = Vec::new();
        type Shape = (Vec<u32>, Vec<(u32, u32)>);
        let shapes: Vec<Shape> = vec![
            (vec![0, 0], vec![(0, 1)]),
            (vec![0, 1], vec![(0, 1)]),
            (vec![1, 1], vec![(0, 1)]),
            (vec![1, 2], vec![(0, 1)]),
            (vec![2, 2], vec![(0, 1)]),
            (vec![0, 1, 2], vec![(0, 1), (1, 2)]),
            (vec![0, 0, 1], vec![(0, 1), (1, 2)]),
            (vec![1, 1, 2], vec![(0, 1), (1, 2)]),
            (vec![0, 1, 1], vec![(0, 1), (1, 2)]),
            (vec![2, 0, 1], vec![(0, 1), (1, 2)]),
        ];
        for (labels, edges) in shapes {
            let g = graph_from_edges(&labels, &edges);
            let c = count_homomorphisms(data, &g, &Budget::unlimited()).unwrap();
            qs.push(LabeledQuery::new(g, c.max(1)));
        }
        Workload::from_queries(qs)
    }

    #[test]
    fn sketch_trains_and_estimates() {
        let d = data_graph();
        let w = real_workload(&d);
        let cfg = SketchConfig::tiny();
        let (sketch, report) = LearnedSketch::train(&d, &w, &cfg);
        assert_eq!(report.num_queries, w.len());
        // loss decreased over training
        assert!(report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap());
        // estimates are finite, ≥ 1
        for q in &w.queries {
            let e = sketch.estimate(&q.graph);
            assert!(e.is_finite() && e >= 1.0);
        }
    }

    #[test]
    fn active_round_grows_training_set() {
        let d = data_graph();
        let w = real_workload(&d);
        let cfg = SketchConfig::tiny();
        let (mut sketch, _) = LearnedSketch::train(&d, &w, &cfg);
        let mut items = encode_workload_with(sketch.encoder(), &w, Parallelism::auto());
        let pool_queries = vec![
            graph_from_edges(&[0, 2], &[(0, 1)]),
            graph_from_edges(&[2, 1, 0], &[(0, 1), (1, 2)]),
            graph_from_edges(&[1, 1, 1], &[(0, 1), (1, 2)]),
        ];
        let mut pool: Vec<PoolItem> = pool_queries
            .into_iter()
            .map(|g| PoolItem {
                encoded: sketch.encode(&g),
                graph: g,
            })
            .collect();
        let before = items.len();
        let mut rng = SmallRng::seed_from_u64(5);
        let report = active_round(
            &mut sketch,
            &mut items,
            &mut pool,
            |g| count_homomorphisms(&d, g, &Budget::unlimited()).ok(),
            Strategy::CrossTask,
            2,
            &TrainConfig::quick(5),
            0,
            &mut rng,
        );
        assert_eq!(report.labeled, 2);
        assert_eq!(items.len(), before + 2);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn sketch_json_roundtrip_preserves_predictions() {
        let d = data_graph();
        let w = real_workload(&d);
        let (sketch, _) = LearnedSketch::train(&d, &w, &SketchConfig::tiny());
        let json = sketch.to_json();
        let back = LearnedSketch::from_json(&json).expect("deserialize");
        for q in &w.queries {
            let a = sketch.predict(&q.graph);
            let b = back.predict(&q.graph);
            assert_eq!(a.log10_count, b.log10_count);
            assert_eq!(a.class_probs, b.class_probs);
        }
    }

    /// The value under `key` of a JSON object.
    fn field_mut<'a>(v: &'a mut serde_json::Value, key: &str) -> &'a mut serde_json::Value {
        match v {
            serde_json::Value::Object(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .expect(key),
            other => panic!("expected an object, got {}", other.kind()),
        }
    }

    #[test]
    fn checkpoints_omit_gradients_and_older_ones_still_load() {
        let d = data_graph();
        let w = real_workload(&d);
        let (sketch, _) = LearnedSketch::train(&d, &w, &SketchConfig::tiny());
        let json = sketch.to_json();
        assert!(!json.contains("\"grads\""), "checkpoint carries gradients");

        // Older checkpoints also stored a gradient buffer shaped like the
        // weights, as `model.store.grads` between `values` and `names`.
        let mut value: serde_json::Value = serde_json::from_str(&json).expect("parse");
        let store = field_mut(field_mut(&mut value, "model"), "store");
        let grads = field_mut(store, "values").clone();
        let serde_json::Value::Object(pairs) = store else {
            panic!("store is not an object");
        };
        pairs.insert(1, ("grads".to_string(), grads));
        let old_json = serde_json::to_string(&value);
        assert!(old_json.contains("\"grads\""));
        let old = LearnedSketch::from_json(&old_json).expect("older checkpoint loads");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for q in &w.queries {
            let (a, b) = (sketch.predict(&q.graph), old.predict(&q.graph));
            assert_eq!(a.log10_count.to_bits(), b.log10_count.to_bits());
            assert_eq!(bits(&a.class_probs), bits(&b.class_probs));
        }
    }

    #[test]
    fn a_short_weight_matrix_fails_to_load() {
        let d = data_graph();
        let w = real_workload(&d);
        let (sketch, _) = LearnedSketch::train(&d, &w, &SketchConfig::tiny());
        let json = sketch.to_json();
        let mut value: serde_json::Value = serde_json::from_str(&json).expect("parse");
        let store = field_mut(field_mut(&mut value, "model"), "store");
        // values[0] is the first GIN weight, `lss.gin.gin0.l0.w`
        let serde_json::Value::Array(values) = field_mut(store, "values") else {
            panic!("values is not an array");
        };
        let serde_json::Value::Array(data) = field_mut(&mut values[0], "data") else {
            panic!("data is not an array");
        };
        data.pop();
        let path = std::env::temp_dir().join("alss_short_matrix_test.json");
        std::fs::write(&path, serde_json::to_string(&value)).expect("write");
        let err = LearnedSketch::load(&path)
            .err()
            .expect("a short matrix must not load");
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let err = err.to_string();
        assert!(err.starts_with("model.store.values[0]: a "), "{err}");
        assert!(err.contains("matrix holds"), "{err}");
    }

    #[test]
    fn reading_a_matrix_checks_its_shape() {
        let m = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(mat_from_json(&mat_to_json(&m)).unwrap(), m);
        let with = |rows: u64, cols: u64, len: usize| {
            mat_from_json(&object([
                ("rows", Value::UInt(rows)),
                ("cols", Value::UInt(cols)),
                ("data", Value::Array(vec![float(0.0); len])),
            ]))
        };
        let short = with(2, 3, 5).unwrap_err();
        assert!(short.contains("2×3 matrix holds 5"), "{short}");
        assert!(with(2, 3, 7).is_err());
        // rows × cols overflows usize: an error, not a wrapped product.
        assert!(with(1 << 33, 1 << 33, 0).is_err());
        assert!(with(0, 5, 0).is_ok());
    }

    #[test]
    fn sketch_file_save_load() {
        let d = data_graph();
        let w = real_workload(&d);
        let (sketch, _) = LearnedSketch::train(&d, &w, &SketchConfig::tiny());
        let path = std::env::temp_dir().join("alss_sketch_test.json");
        sketch.save(&path).expect("save");
        let back = LearnedSketch::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        let q = &w.queries[0].graph;
        assert_eq!(sketch.estimate(q), back.estimate(q));
    }

    #[test]
    fn oracle_budget_failures_are_dropped() {
        let d = data_graph();
        let w = real_workload(&d);
        let cfg = SketchConfig::tiny();
        let (mut sketch, _) = LearnedSketch::train(&d, &w, &cfg);
        let mut items = encode_workload_with(sketch.encoder(), &w, Parallelism::auto());
        let g = graph_from_edges(&[0, 1], &[(0, 1)]);
        let mut pool = vec![PoolItem {
            encoded: sketch.encode(&g),
            graph: g,
        }];
        let mut rng = SmallRng::seed_from_u64(6);
        let report = active_round(
            &mut sketch,
            &mut items,
            &mut pool,
            |_| None, // oracle always times out
            Strategy::Entropy,
            1,
            &TrainConfig::quick(2),
            1,
            &mut rng,
        );
        assert_eq!(report.labeled, 0);
        assert_eq!(report.dropped, 1);
        assert!(pool.is_empty());
    }
}
