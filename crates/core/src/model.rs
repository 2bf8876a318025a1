//! The LSS neural architecture (§4.2, Algorithm 1): GIN substructure
//! encoder → structured self-attention aggregation → multi-task MLP head
//! (1 regression neuron for `log10 c_Θ(q)` + `m` classification neurons for
//! the count magnitude, §5).

use crate::encode::EncodedQuery;
use alss_nn::loss::{cross_entropy_loss, magnitude_class, mse_log_loss, multi_task_loss};
use alss_nn::{
    Activation, Aggregation, GinEncoder, Mat, Mlp, ParamStore, SelfAttention, Tape, Var,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How per-substructure representations are aggregated into the query
/// representation (`w(·)` of Eq. 2): the paper's structured self-attention
/// or a plain unweighted sum (the `ablation_attention` baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Aggregator {
    /// Structured self-attention (Algorithm 1, lines 8–11).
    #[default]
    Attention,
    /// Unweighted sum of substructure representations.
    SumPool,
}

/// LSS hyper-parameters (§6.1 defaults: 3 GIN layers × 64 hidden units,
/// dropout 0.5, two-layer MLP, λ = 1/3).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LssConfig {
    /// GIN hidden width.
    pub hidden: usize,
    /// Number of GIN layers.
    pub gnn_layers: usize,
    /// Dropout probability inside GIN/MLP hidden layers.
    pub dropout: f32,
    /// Attention hidden width `da`.
    pub att_hidden: usize,
    /// Attention rows `r` ("experts").
    pub att_heads: usize,
    /// MLP hidden width.
    pub mlp_hidden: usize,
    /// Magnitude classes `m` (counts range up to ~10^14 in the paper).
    pub num_classes: usize,
    /// Multi-task coefficient λ of Eq. (6).
    pub lambda: f32,
    /// Substructure aggregation (attention per the paper, or sum pooling
    /// for the ablation).
    #[serde(default)]
    pub aggregator: Aggregator,
    /// GNN neighborhood aggregation (GIN sum per the paper, or mean for
    /// the ablation).
    #[serde(default)]
    pub gnn_aggregation: Aggregation,
}

impl Default for LssConfig {
    fn default() -> Self {
        LssConfig {
            hidden: 64,
            gnn_layers: 3,
            dropout: 0.5,
            att_hidden: 64,
            att_heads: 4,
            mlp_hidden: 64,
            num_classes: 16,
            lambda: 1.0 / 3.0,
            aggregator: Aggregator::Attention,
            gnn_aggregation: Aggregation::Sum,
        }
    }
}

impl LssConfig {
    /// A small configuration for tests and quick examples.
    pub fn tiny() -> Self {
        LssConfig {
            hidden: 16,
            gnn_layers: 2,
            dropout: 0.0,
            att_hidden: 16,
            att_heads: 2,
            mlp_hidden: 16,
            num_classes: 8,
            lambda: 1.0 / 3.0,
            aggregator: Aggregator::Attention,
            gnn_aggregation: Aggregation::Sum,
        }
    }
}

/// Output of one LSS prediction.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Prediction {
    /// Regression output `log10 c_Θ(q)`.
    pub log10_count: f64,
    /// Posterior over magnitude classes `p_Θ(y|q)` (softmax of the `m`
    /// classification neurons).
    pub class_probs: Vec<f64>,
}

impl Prediction {
    /// Estimated count in linear scale, clamped to ≥ 1 (§2's assumption).
    pub fn count(&self) -> f64 {
        10f64.powf(self.log10_count).max(1.0)
    }

    /// Most likely magnitude class `ŷ₁`.
    pub fn top_class(&self) -> usize {
        self.class_probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// `(ŷ₁, ŷ₂)` — the two most likely classes.
    pub fn top_two(&self) -> (usize, usize) {
        let mut idx: Vec<usize> = (0..self.class_probs.len()).collect();
        idx.sort_by(|&a, &b| {
            self.class_probs[b]
                .partial_cmp(&self.class_probs[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        (idx[0], *idx.get(1).unwrap_or(&idx[0]))
    }
}

/// The LSS model: parameters + architecture.
#[derive(Clone, Serialize, Deserialize)]
pub struct LssModel {
    cfg: LssConfig,
    store: ParamStore,
    gin: GinEncoder,
    /// `None` under [`Aggregator::SumPool`].
    att: Option<SelfAttention>,
    mlp: Mlp,
}

impl LssModel {
    /// Build a model for the given input feature dimensions.
    pub fn new<R: Rng>(cfg: LssConfig, node_dim: usize, edge_dim: usize, rng: &mut R) -> Self {
        assert!(node_dim > 0, "node feature dimension must be positive");
        let mut store = ParamStore::new();
        let gin = GinEncoder::with_options(
            &mut store,
            "lss.gin",
            node_dim,
            cfg.hidden,
            cfg.gnn_layers,
            edge_dim,
            cfg.dropout,
            Activation::Relu,
            cfg.gnn_aggregation,
            rng,
        );
        let (att, mlp_in) = match cfg.aggregator {
            Aggregator::Attention => {
                let att = SelfAttention::new(
                    &mut store,
                    "lss.att",
                    cfg.hidden,
                    cfg.att_hidden,
                    cfg.att_heads,
                    rng,
                );
                let d = att.out_dim();
                (Some(att), d)
            }
            Aggregator::SumPool => (None, cfg.hidden),
        };
        let mlp = Mlp::new(
            &mut store,
            "lss.mlp",
            &[mlp_in, cfg.mlp_hidden, 1 + cfg.num_classes],
            Activation::Relu,
            cfg.dropout,
            rng,
        );
        LssModel {
            cfg,
            store,
            gin,
            att,
            mlp,
        }
    }

    /// Hyper-parameters.
    pub fn config(&self) -> &LssConfig {
        &self.cfg
    }

    /// The parameter store (optimizer access).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter store (optimizer access).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Total scalar weight count.
    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }

    /// Forward pass (Algorithm 1) on a tape, for training and losses:
    /// returns the regression node (`1 × 1`, `log10 c_Θ(q)`) and the
    /// classification logits (`1 × m`). Inference uses [`LssModel::predict`].
    ///
    /// The tape runs GIN one substructure at a time, in decomposition
    /// order: that fixes the order dropout masks are drawn in and the
    /// order each weight gradient sums its per-substructure terms.
    pub fn forward(&self, tape: &mut Tape, query: &EncodedQuery) -> (Var, Var) {
        let graphs = &query.graphs;
        assert!(
            graphs.num_graphs() > 0,
            "query decomposed into no substructures"
        );
        let mut reps: Vec<Var> = Vec::with_capacity(graphs.num_graphs());
        for g in 0..graphs.num_graphs() {
            let rows = graphs.rows(g);
            let x = tape.input(query.features.slice_rows(rows.clone()));
            let es = query
                .edge_sums
                .as_ref()
                .map(|m| tape.input(m.slice_rows(rows)));
            let h = self.gin.encode(tape, &self.store, x, graphs, g, es);
            reps.push(h);
        }
        let h_q = tape.concat_rows(&reps); // n × hidden (Alg. 1 line 8)
        let e_q = match &self.att {
            // lines 9-11: attention-weighted aggregation + flatten
            Some(att) => att.forward(tape, &self.store, h_q).0,
            // ablation: unweighted sum over substructures
            None => tape.sum_rows(h_q),
        };
        let out = self.mlp.forward(tape, &self.store, e_q); // line 12
        let reg = tape.slice_cols(out, 0, 1);
        let logits = tape.slice_cols(out, 1, 1 + self.cfg.num_classes);
        (reg, logits)
    }

    /// Build the Eq. (6) multi-task loss for one labeled query.
    pub fn loss(&self, tape: &mut Tape, query: &EncodedQuery, true_count: u64) -> Var {
        let (reg, logits) = self.forward(tape, query);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "log10 of a u64 is < 20, which f32 holds comfortably"
        )]
        let target_log = (true_count.max(1) as f64).log10() as f32;
        let l_reg = mse_log_loss(tape, reg, &[target_log]);
        let cls = magnitude_class(true_count as f64, self.cfg.num_classes);
        let l_cla = cross_entropy_loss(tape, logits, &[cls]);
        multi_task_loss(tape, l_reg, l_cla, self.cfg.lambda)
    }

    /// Inference: predict count and magnitude posterior (eval mode; no
    /// dropout, deterministic). Builds no tape and clones no weights: GIN
    /// runs over the query's packed substructures as encoded, so each GIN
    /// layer is one aggregate and one MLP pass. The result is
    /// bit-identical to [`LssModel::forward`] on an eval tape followed by
    /// a softmax of the logits.
    pub fn predict(&self, query: &EncodedQuery) -> Prediction {
        let _span = alss_telemetry::Span::enter("model.forward");
        let EncodedQuery {
            features,
            graphs,
            edge_sums,
        } = query;
        assert!(
            graphs.num_graphs() > 0,
            "query decomposed into no substructures"
        );
        let h_q = self
            .gin
            .infer(&self.store, features, graphs, edge_sums.as_ref());
        let e_q = match &self.att {
            Some(att) => att.infer(&self.store, &h_q),
            None => h_q.sum_rows(),
        };
        let out = self.mlp.infer(&self.store, &e_q);
        let mut probs = Mat::row_vector(&out.row(0)[1..1 + self.cfg.num_classes]);
        probs.softmax_rows_in_place();
        Prediction {
            log10_count: f64::from(out.get(0, 0)),
            class_probs: probs.data().iter().map(|&p| f64::from(p)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encoder;
    use alss_graph::builder::graph_from_edges;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup() -> (Encoder, LssModel) {
        let data = graph_from_edges(&[0, 0, 1, 2], &[(0, 1), (1, 2), (2, 3)]);
        let enc = Encoder::frequency(&data, 3);
        let mut rng = SmallRng::seed_from_u64(0);
        let model = LssModel::new(LssConfig::tiny(), enc.node_dim(), enc.edge_dim(), &mut rng);
        (enc, model)
    }

    #[test]
    fn forward_shapes() {
        let (enc, model) = setup();
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let eq = enc.encode_query(&q);
        let mut tape = Tape::eval();
        let (reg, logits) = model.forward(&mut tape, &eq);
        assert_eq!(tape.value(reg).shape(), (1, 1));
        assert_eq!(tape.value(logits).shape(), (1, 8));
    }

    #[test]
    fn prediction_is_deterministic_and_valid() {
        let (enc, model) = setup();
        let q = graph_from_edges(&[0, 1], &[(0, 1)]);
        let eq = enc.encode_query(&q);
        let p1 = model.predict(&eq);
        let p2 = model.predict(&eq);
        assert_eq!(p1.log10_count, p2.log10_count);
        assert!((p1.class_probs.iter().sum::<f64>() - 1.0).abs() < 1e-5);
        assert!(p1.count() >= 1.0);
    }

    #[test]
    fn prediction_invariant_to_query_node_order() {
        let (enc, model) = setup();
        // same path with two different node numberings
        let q1 = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let q2 = graph_from_edges(&[2, 1, 0], &[(2, 1), (1, 0)]);
        let p1 = model.predict(&enc.encode_query(&q1));
        let p2 = model.predict(&enc.encode_query(&q2));
        assert!(
            (p1.log10_count - p2.log10_count).abs() < 1e-4,
            "{} vs {}",
            p1.log10_count,
            p2.log10_count
        );
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let (enc, model) = setup();
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let eq = enc.encode_query(&q);
        let mut tape = Tape::train(SmallRng::seed_from_u64(2));
        let l = model.loss(&mut tape, &eq, 1234);
        let v = tape.value(l).scalar();
        assert!(v.is_finite());
        assert!(v > 0.0);
    }

    #[test]
    fn sum_pool_aggregator_works_and_registers_fewer_params() {
        let data = graph_from_edges(&[0, 0, 1, 2], &[(0, 1), (1, 2), (2, 3)]);
        let enc = Encoder::frequency(&data, 3);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut cfg = LssConfig::tiny();
        cfg.aggregator = Aggregator::SumPool;
        let pooled = LssModel::new(cfg, enc.node_dim(), enc.edge_dim(), &mut rng);
        let mut rng2 = SmallRng::seed_from_u64(3);
        let attn = LssModel::new(LssConfig::tiny(), enc.node_dim(), enc.edge_dim(), &mut rng2);
        assert!(pooled.num_weights() < attn.num_weights());
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let p = pooled.predict(&enc.encode_query(&q));
        assert!(p.count().is_finite() && p.count() >= 1.0);
    }

    #[test]
    fn mean_gnn_variant_predicts() {
        let data = graph_from_edges(&[0, 0, 1, 2], &[(0, 1), (1, 2), (2, 3)]);
        let enc = Encoder::frequency(&data, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut cfg = LssConfig::tiny();
        cfg.gnn_aggregation = alss_nn::Aggregation::Mean;
        let model = LssModel::new(cfg, enc.node_dim(), enc.edge_dim(), &mut rng);
        let q = graph_from_edges(&[0, 1], &[(0, 1)]);
        let p = model.predict(&enc.encode_query(&q));
        assert!(p.count().is_finite());
    }

    #[test]
    fn model_serde_roundtrip() {
        let data = graph_from_edges(&[0, 0, 1, 2], &[(0, 1), (1, 2), (2, 3)]);
        let enc = Encoder::frequency(&data, 3);
        let mut rng = SmallRng::seed_from_u64(5);
        let model = LssModel::new(LssConfig::tiny(), enc.node_dim(), enc.edge_dim(), &mut rng);
        let json = serde_json::to_string(&model).expect("serialize");
        let back: LssModel = serde_json::from_str(&json).expect("deserialize");
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let eq = enc.encode_query(&q);
        assert_eq!(
            model.predict(&eq).log10_count,
            back.predict(&eq).log10_count
        );
    }

    #[test]
    fn top_two_classes_ordered() {
        let p = Prediction {
            log10_count: 2.0,
            class_probs: vec![0.1, 0.6, 0.3],
        };
        assert_eq!(p.top_class(), 1);
        assert_eq!(p.top_two(), (1, 2));
    }
}
