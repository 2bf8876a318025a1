//! Feature encoding of query substructures (§4.3): frequency-based,
//! pre-trained-embedding-based, and concatenated node encodings, plus the
//! frequency-based edge encoding used for edge-labeled graphs (Eq. 4).

use alss_embedding::prone::{prone, ProneConfig};
use alss_embedding::Embedding;
use alss_graph::augmented::label_augmented_graph;
use alss_graph::labels::LabelStats;
use alss_graph::{Graph, Substructure, WILDCARD};
use alss_nn::{Mat, PackedGraphs};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

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

/// A fully encoded query in the layout the GIN reads (the `H_q` input of
/// Algorithm 1): its decomposed substructures packed into one
/// block-diagonal graph, with every substructure node's features and edge
/// sums stacked in the same row order. Cached by the trainer so encoding
/// runs once per query.
#[derive(Clone, Debug)]
pub struct EncodedQuery {
    /// `N × node_dim` initial node features `e_v^{(0)}`, row for row.
    pub features: Mat,
    /// One packed graph per substructure, in decomposition order. Shared
    /// by `Arc`, so the training tapes that read it, on the trainer's
    /// worker threads, copy nothing.
    pub graphs: Arc<PackedGraphs>,
    /// `N × edge_dim` per-node sums of incident initial edge features
    /// (Eq. 4), present iff the encoder has an edge encoding.
    pub edge_sums: Option<Mat>,
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

    /// Encode decomposed substructures, in the given order, straight into
    /// the packed layout: each substructure's CSR adjacency (neighbors
    /// ascending) becomes one packed graph, and a node's edge sum adds its
    /// incident edges' features in that same neighbor order.
    pub fn encode_substructures(&self, subs: &[Substructure]) -> EncodedQuery {
        let graphs = || subs.iter().map(|s| &s.graph);
        let packed = PackedGraphs::new(graphs().map(|g| g.nodes().map(move |v| g.neighbors(v))));
        let (node_dim, edge_dim) = (self.node_dim(), self.edge_dim());
        let mut features = Vec::with_capacity(packed.num_nodes() * node_dim);
        let mut edge_sums = Vec::with_capacity(packed.num_nodes() * edge_dim);
        for g in graphs() {
            for v in g.nodes() {
                let labels: Vec<u32> = if g.label(v) == WILDCARD {
                    vec![WILDCARD]
                } else {
                    g.labels_of(v).collect()
                };
                features.extend(self.node_features_multi(&labels));
                if edge_dim > 0 {
                    let mut sum = vec![0.0f32; edge_dim];
                    for i in 0..g.degree(v) {
                        let label = g.neighbor_edge_labels(v).map_or(WILDCARD, |l| l[i]);
                        for (o, x) in sum.iter_mut().zip(self.edge_features(label)) {
                            *o += x;
                        }
                    }
                    edge_sums.extend(sum);
                }
            }
        }
        let n = packed.num_nodes();
        EncodedQuery {
            features: Mat::from_vec(n, node_dim, features),
            graphs: Arc::new(packed),
            edge_sums: (edge_dim > 0).then(|| Mat::from_vec(n, edge_dim, edge_sums)),
        }
    }

    /// Decompose and encode a whole query graph (Algorithm 1, line 1 +
    /// §4.3).
    pub fn encode_query(&self, q: &Graph) -> EncodedQuery {
        let _span = alss_telemetry::Span::enter("encode.query");
        self.encode_substructures(&alss_graph::decompose(q, self.hops))
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
        assert_eq!(eq.graphs.num_graphs(), 3);
        // each BFS tree of the 3-node path holds all three nodes
        assert_eq!(eq.features.shape(), (9, 3));
        assert!(eq.edge_sums.is_none());
    }

    #[test]
    fn edge_labeled_graphs_get_edge_sums() {
        let mut b = alss_graph::GraphBuilder::new(3);
        b.set_label(0, 0).set_label(1, 0).set_label(2, 1);
        b.add_labeled_edge(0, 1, 0).add_labeled_edge(1, 2, 1);
        let d = b.build();
        let enc = Encoder::frequency(&d, 2);
        assert_eq!(enc.edge_dim(), 2);
        let eq = enc.encode_query(&d);
        let es = eq.edge_sums.as_ref().expect("edge sums expected");
        assert_eq!(es.shape(), (eq.features.rows(), 2));
        // Substructure 0 is the tree rooted at node 0: node 0 has the
        // label-0 edge, node 1 both edges, node 2 the label-1 edge.
        let (f0, f1) = (enc.edge_features(0), enc.edge_features(1));
        assert_eq!(eq.graphs.rows(0), 0..3);
        assert_eq!(es.row(0), f0.as_slice());
        assert_eq!(es.row(1), &[f0[0] + f1[0], f0[1] + f1[1]]);
        assert_eq!(es.row(2), f1.as_slice());
        // A one-node query has no edges, but its edge sums keep the
        // model's edge width (they were one column wide, which the GIN
        // input-width check rejected).
        let single = alss_graph::GraphBuilder::new(1).build();
        let es = enc.encode_query(&single).edge_sums;
        assert_eq!(es.map(|m| m.shape()), Some((1, 2)));
    }
}
