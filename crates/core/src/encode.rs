//! Feature encoding of query substructures (§4.3): frequency-based,
//! pre-trained-embedding-based, and concatenated node encodings, plus the
//! frequency-based edge encoding used for edge-labeled graphs (Eq. 4).

use alss_embedding::prone::{prone, ProneConfig};
use alss_embedding::Embedding;
use alss_graph::augmented::label_augmented_graph;
use alss_graph::labels::LabelStats;
use alss_graph::{Graph, Substructure, WILDCARD};
use alss_nn::{adjacency_from_edges, edge_feature_sums, Adjacency, Mat};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which node encoding variant to use (the LSS-fre / LSS-emb / LSS-con of
/// §6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EncodingKind {
    /// Frequency-based: `|Σ|`-dimensional filter-capability vector.
    Frequency,
    /// Pre-trained label embedding on the label-augmented graph `G_L`.
    Embedding,
    /// `[frequency ‖ embedding]`.
    Concatenated,
}

impl std::fmt::Display for EncodingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodingKind::Frequency => write!(f, "LSS-fre"),
            EncodingKind::Embedding => write!(f, "LSS-emb"),
            EncodingKind::Concatenated => write!(f, "LSS-con"),
        }
    }
}

/// A ready-to-train encoded substructure.
#[derive(Clone, Debug)]
pub struct EncodedSubstructure {
    /// `n × in_dim` initial node features `e_v^{(0)}`.
    pub features: Mat,
    /// Substructure adjacency for GIN aggregation.
    pub adj: Adjacency,
    /// `n × edge_dim` per-node sums of initial edge features (Eq. 4),
    /// present iff the encoder has an edge encoding.
    pub edge_sums: Option<Mat>,
}

/// A fully encoded query: one [`EncodedSubstructure`] per decomposed
/// substructure. Cached by the trainer so encoding runs once per query.
#[derive(Clone, Debug)]
pub struct EncodedQuery {
    /// The encoded substructures.
    pub subs: Vec<EncodedSubstructure>,
}

/// The §4.3 feature encoder: holds the data-graph statistics and the
/// optional pre-trained label embedding.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Encoder {
    kind: EncodingKind,
    stats: LabelStats,
    num_labels: usize,
    num_edge_labels: usize,
    /// Embedding vectors for the `|Σ|` label nodes of `G_L`.
    label_embedding: Option<Vec<Vec<f32>>>,
    /// BFS hops for decomposition (the paper uses 3).
    hops: u32,
}

impl Encoder {
    /// Frequency-based encoder (LSS-fre).
    pub fn frequency(data: &Graph, hops: u32) -> Self {
        Encoder {
            kind: EncodingKind::Frequency,
            stats: LabelStats::new(data),
            num_labels: data.num_node_labels(),
            num_edge_labels: data.num_edge_labels(),
            label_embedding: None,
            hops,
        }
    }

    /// Embedding-based encoder (LSS-emb) from an existing embedding of the
    /// label-augmented graph. `augment_base` is the number of original data
    /// nodes, i.e. the id offset of the label nodes in `G_L`.
    pub fn embedding_from(
        data: &Graph,
        hops: u32,
        gl_embedding: &Embedding,
        augment_base: usize,
    ) -> Self {
        let num_labels = data.num_node_labels();
        let table: Vec<Vec<f32>> = (0..num_labels)
            .map(|l| gl_embedding.vector(augment_base + l).to_vec())
            .collect();
        Encoder {
            kind: EncodingKind::Embedding,
            stats: LabelStats::new(data),
            num_labels,
            num_edge_labels: data.num_edge_labels(),
            label_embedding: Some(table),
            hops,
        }
    }

    /// Embedding-based encoder with ProNE pre-training on `G_L` (the
    /// paper's production configuration for LSS-emb).
    pub fn embedding<R: Rng>(data: &Graph, hops: u32, cfg: &ProneConfig, rng: &mut R) -> Self {
        let aug = label_augmented_graph(data);
        let emb = prone(&aug.graph, cfg, rng);
        Self::embedding_from(data, hops, &emb, aug.base)
    }

    /// Concatenated encoder (LSS-con): frequency ‖ embedding.
    pub fn concatenated<R: Rng>(data: &Graph, hops: u32, cfg: &ProneConfig, rng: &mut R) -> Self {
        let mut e = Self::embedding(data, hops, cfg, rng);
        e.kind = EncodingKind::Concatenated;
        e
    }

    /// Which variant this encoder produces.
    pub fn kind(&self) -> EncodingKind {
        self.kind
    }

    /// BFS-tree decomposition depth.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Node feature dimensionality.
    pub fn node_dim(&self) -> usize {
        let emb = self
            .label_embedding
            .as_ref()
            .and_then(|t| t.first())
            .map_or(0, |v| v.len());
        match self.kind {
            EncodingKind::Frequency => self.num_labels,
            EncodingKind::Embedding => emb,
            EncodingKind::Concatenated => self.num_labels + emb,
        }
    }

    /// Edge feature dimensionality (0 when the data graph has no edge
    /// labels).
    pub fn edge_dim(&self) -> usize {
        self.num_edge_labels
    }

    /// Encode one node label into the configured feature vector.
    pub fn node_features(&self, label: u32) -> Vec<f32> {
        self.node_features_multi(&[label])
    }

    /// Encode a node carrying a *set* of labels (§4.3's multi-label
    /// generalization, used by yago-like graphs): the embedding part is
    /// `Σ_{l∈L(v)} e'(l)`; the frequency part marks every carried label's
    /// dimension. A `[WILDCARD]` set encodes the unlabeled node.
    pub fn node_features_multi(&self, labels: &[u32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.node_dim());
        match self.kind {
            EncodingKind::Frequency => self.frequency_features_multi(labels, &mut out),
            EncodingKind::Embedding => self.embedding_features_multi(labels, &mut out),
            EncodingKind::Concatenated => {
                self.frequency_features_multi(labels, &mut out);
                self.embedding_features_multi(labels, &mut out);
            }
        }
        out
    }

    /// Frequency-based encoding (§4.3): dimension `i` reflects `F(l_i)/|V|`
    /// when the node carries label `l_i`.
    ///
    /// Implementation note: the paper's raw encoding puts a constant 1.0 in
    /// every non-carried dimension, which badly conditions GIN sum
    /// aggregation (the informative deviation is ~1% of the input norm, and
    /// in LSS-con it drowns the embedding features). We store the centered
    /// affine reparameterization — `selectivity − 1 ≤ 0` on carried labels,
    /// `0` elsewhere — which encodes identical information (a fixed affine
    /// map of the paper's vector) but optimizes dramatically better.
    fn frequency_features_multi(&self, labels: &[u32], out: &mut Vec<f32>) {
        let start = out.len();
        out.extend(std::iter::repeat_n(0.0, self.num_labels));
        for &l in labels {
            if l != WILDCARD && (l as usize) < self.num_labels {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "selectivities are O(1) magnitudes"
                )]
                let sel = self.stats.selectivity(l) as f32;
                out[start + l as usize] = sel - 1.0;
            }
        }
    }

    fn embedding_features_multi(&self, labels: &[u32], out: &mut Vec<f32>) {
        let Some(table) = self.label_embedding.as_ref() else {
            // The table is Some whenever the encoding is Embedding (set at
            // construction). Emitting no features here mis-sizes the
            // vector, which the model's input-width check then reports.
            debug_assert!(false, "embedding encoder constructed without table");
            return;
        };
        let dim = table.first().map_or(0, |v| v.len());
        let start = out.len();
        out.extend(std::iter::repeat_n(0.0, dim));
        for &l in labels {
            if l == WILDCARD || l as usize >= table.len() {
                continue;
            }
            for (o, &x) in out[start..].iter_mut().zip(&table[l as usize]) {
                *o += x;
            }
        }
    }

    /// Frequency-based edge-label encoding (the Eq. 4 extension).
    pub fn edge_features(&self, label: u32) -> Vec<f32> {
        (0..self.num_edge_labels)
            .map(|i| {
                if label != WILDCARD && label as usize == i {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "selectivities are O(1) magnitudes"
                    )]
                    {
                        self.stats.edge_selectivity(label) as f32
                    }
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// Encode one decomposed substructure.
    pub fn encode_substructure(&self, s: &Substructure) -> EncodedSubstructure {
        let g = &s.graph;
        let n = g.num_nodes();
        let dim = self.node_dim();
        let mut feats = Vec::with_capacity(n * dim);
        for v in g.nodes() {
            let labels: Vec<u32> = if g.label(v) == WILDCARD {
                vec![WILDCARD]
            } else {
                g.labels_of(v).collect()
            };
            feats.extend(self.node_features_multi(&labels));
        }
        let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.u, e.v)).collect();
        let adj = adjacency_from_edges(n, &edges);
        let edge_sums = (self.num_edge_labels > 0).then(|| {
            let efeats: Vec<Vec<f32>> = g.edges().map(|e| self.edge_features(e.label)).collect();
            edge_feature_sums(n, self.num_edge_labels, &edges, &efeats)
        });
        EncodedSubstructure {
            features: Mat::from_vec(n, dim, feats),
            adj,
            edge_sums,
        }
    }

    /// Decompose and encode a whole query graph (Algorithm 1, line 1 +
    /// §4.3).
    pub fn encode_query(&self, q: &Graph) -> EncodedQuery {
        let _span = alss_telemetry::Span::enter("encode.query");
        let subs = alss_graph::decompose(q, self.hops)
            .iter()
            .map(|s| self.encode_substructure(s))
            .collect();
        EncodedQuery { subs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alss_graph::builder::graph_from_edges;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn data() -> Graph {
        graph_from_edges(&[0, 0, 1, 2], &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn frequency_features_follow_the_paper() {
        let enc = Encoder::frequency(&data(), 3);
        assert_eq!(enc.node_dim(), 3);
        // node labeled 0: dim0 = F(0)/|V| − 1 = −0.5 (centered); others 0
        assert_eq!(enc.node_features(0), vec![-0.5, 0.0, 0.0]);
        assert_eq!(enc.node_features(2), vec![0.0, 0.0, -0.75]);
        // wildcard: every dimension passes everything (centered to 0)
        assert_eq!(enc.node_features(WILDCARD), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn embedding_features_sum_labels() {
        let d = data();
        let mut rng = SmallRng::seed_from_u64(0);
        let enc = Encoder::embedding(
            &d,
            3,
            &ProneConfig {
                dim: 4,
                ..Default::default()
            },
            &mut rng,
        );
        assert_eq!(enc.node_dim(), 4);
        let f0 = enc.node_features(0);
        assert_eq!(f0.len(), 4);
        assert!(f0.iter().any(|&x| x != 0.0));
        assert_eq!(enc.node_features(WILDCARD), vec![0.0; 4]);
    }

    #[test]
    fn concatenated_dim_is_sum() {
        let d = data();
        let mut rng = SmallRng::seed_from_u64(1);
        let enc = Encoder::concatenated(
            &d,
            3,
            &ProneConfig {
                dim: 4,
                ..Default::default()
            },
            &mut rng,
        );
        assert_eq!(enc.node_dim(), 3 + 4);
        assert_eq!(enc.node_features(1).len(), 7);
    }

    #[test]
    fn encode_query_produces_one_sub_per_node() {
        let d = data();
        let enc = Encoder::frequency(&d, 3);
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let eq = enc.encode_query(&q);
        assert_eq!(eq.subs.len(), 3);
        for s in &eq.subs {
            assert_eq!(s.features.cols(), 3);
            assert!(s.edge_sums.is_none());
        }
    }

    #[test]
    fn edge_labeled_graphs_get_edge_sums() {
        let mut b = alss_graph::GraphBuilder::new(3);
        b.set_label(0, 0).set_label(1, 0).set_label(2, 1);
        b.add_labeled_edge(0, 1, 0).add_labeled_edge(1, 2, 1);
        let d = b.build();
        let enc = Encoder::frequency(&d, 2);
        assert_eq!(enc.edge_dim(), 2);
        let q = d.clone();
        let eq = enc.encode_query(&q);
        for s in &eq.subs {
            let es = s.edge_sums.as_ref().expect("edge sums expected");
            assert_eq!(es.cols(), 2);
        }
        // A one-node query has no edges, but its edge sums keep the
        // model's edge width (they were one column wide, which the GIN
        // input-width check rejected).
        let single = alss_graph::GraphBuilder::new(1).build();
        let es = enc.encode_query(&single).subs[0].edge_sums.clone();
        assert_eq!(es.map(|m| m.shape()), Some((1, 2)));
    }
}
