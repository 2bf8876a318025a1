//! Graph Isomorphism Network (GIN) layers — the `σ(·)` substructure
//! encoder of LSS (§4.2).
//!
//! A GIN layer computes `h_v' = MLP((1+ε) h_v + Σ_{u∈N(v)} h_u)` (Xu et
//! al., ICLR'19). The paper selects GIN over GCN/GAT/GraphSAGE because its
//! injective aggregate/combine/Readout make it as powerful as the WL test —
//! isomorphic substructures get identical representations, matching the
//! inductive bias of counting. We implement GIN-0 (ε fixed at 0, the
//! common variant, so the aggregate is `h_v + Σ_u h_u`) with a per-layer
//! 2-layer MLP and ReLU.
//!
//! Edge labels (Eq. 4) are supported by concatenating, per node, the sum of
//! incident initial edge features to the aggregated neighbor sum — exact for
//! sum aggregation since `Σ_u [h_u ‖ e_uv] = [Σ_u h_u ‖ Σ_u e_uv]`.
//!
//! Graphs reach GIN in one format, `alss-graph`'s [`PackedGraphs`]: a
//! query's substructures as one block-diagonal graph, with their node
//! features and edge sums in the same row order. Training runs each layer
//! as one aggregate and one MLP pass over all packed rows; inference runs
//! them once per distinct row (see [`GinEncoder::infer`]). Both then read
//! out one row per graph.

use crate::linear::{Activation, Mlp};
use crate::mat::{number_by_key, IndexedRows, Mat};
use crate::param::{ParamError, ParamStore};
use crate::tape::{Tape, Var};
use alss_graph::PackedGraphs;
use alss_telemetry::Span;
use rand::Rng;
use std::sync::Arc;

/// Neighborhood aggregation variant (the GNN ablation of DESIGN.md):
/// injective **sum** (GIN, as powerful as the WL test — the paper's
/// choice) or **mean** (GCN/GraphSAGE-style, not injective: it cannot
/// distinguish neighborhoods that differ only in multiplicity).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Aggregation {
    /// `h_v + Σ_u h_u` — injective, WL-powerful (GIN-0).
    #[default]
    Sum,
    /// `(h_v + Σ_u h_u) / (deg(v)+1)` — mean aggregation.
    Mean,
}

impl Aggregation {
    /// Aggregate `x`, whose rows are the nodes of `graphs`, by the
    /// variant's formula, adding each row's neighbor rows in `graphs`'
    /// order.
    pub fn apply(self, x: &Mat, graphs: &PackedGraphs) -> Mat {
        assert_eq!(x.rows(), graphs.num_nodes(), "packed row mismatch");
        let mut out = Mat::zeros(x.rows(), x.cols());
        for v in 0..x.rows() {
            let nbrs = graphs.neighbors(v).iter().map(|&u| x.row(u));
            self.aggregate_row(out.row_mut(v), x.row(v), nbrs);
        }
        out
    }

    /// Write one node's aggregate into `out`: its own row plus its
    /// neighbor rows, added in order, then divided by `deg+1` under
    /// [`Aggregation::Mean`].
    fn aggregate_row<'a>(
        self,
        out: &mut [f32],
        own: &[f32],
        nbrs: impl ExactSizeIterator<Item = &'a [f32]>,
    ) {
        out.copy_from_slice(own);
        let deg = nbrs.len();
        for row in nbrs {
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a;
            }
        }
        if self == Aggregation::Mean {
            let inv = 1.0 / (deg as f32 + 1.0);
            out.iter_mut().for_each(|e| *e *= inv);
        }
    }

    /// The transpose of [`Aggregation::apply`] (its gradient): the neighbor
    /// sum is symmetric, so scale `g`'s rows first, then aggregate.
    pub(crate) fn apply_transposed(self, g: &Mat, graphs: &PackedGraphs) -> Mat {
        let mut g = g.clone();
        self.scale_rows(&mut g, graphs);
        Aggregation::Sum.apply(&g, graphs)
    }

    /// Divide row `v` by `deg(v)+1` under [`Aggregation::Mean`].
    fn scale_rows(self, m: &mut Mat, graphs: &PackedGraphs) {
        if self == Aggregation::Mean {
            for v in 0..m.rows() {
                let inv = 1.0 / (graphs.neighbors(v).len() as f32 + 1.0);
                m.row_mut(v).iter_mut().for_each(|e| *e *= inv);
            }
        }
    }
}

/// One GIN layer: `MLP` of the aggregate, with the node's edge sum
/// appended when `edge_dim > 0`.
#[derive(Clone, Debug)]
struct GinLayer {
    mlp: Mlp,
    edge_dim: usize,
    aggregation: Aggregation,
}

/// A `K`-layer GIN encoder with sum Readout: each substructure → a
/// `1 × out_dim` representation `h_{s_i}` (Algorithm 1, lines 3–7).
#[derive(Clone, Debug)]
pub struct GinEncoder {
    layers: Vec<GinLayer>,
}

impl GinEncoder {
    /// `num_layers` GIN layers from `in_dim` to `hidden` (all hidden layers
    /// share the width, per the paper's setting of 3×64). GIN's canonical
    /// choices are ReLU and [`Aggregation::Sum`]; gradient checks use a
    /// smooth activation.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per encoder dimension and option"
    )]
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        num_layers: usize,
        edge_dim: usize,
        dropout: f32,
        activation: Activation,
        aggregation: Aggregation,
        rng: &mut R,
    ) -> Result<Self, ParamError> {
        assert!(num_layers >= 1, "GIN encoder needs at least one layer");
        // Not presized: `num_layers` may come from an unchecked config,
        // whose first layer the store rejects when it does not fit.
        let mut layers = Vec::new();
        let mut d = in_dim;
        for k in 0..num_layers {
            // `d` (+ `edge_dim` if edge-labeled) features to `hidden`,
            // through one hidden layer of `hidden` units.
            let widths = [d + edge_dim, hidden, hidden];
            let mlp = Mlp::new(
                store,
                &format!("{name}.gin{k}"),
                &widths,
                activation,
                dropout,
                rng,
            )?;
            layers.push(GinLayer {
                mlp,
                edge_dim,
                aggregation,
            });
            d = hidden;
        }
        Ok(GinEncoder { layers })
    }

    /// Tape forward: encode every graph of `graphs` from the stacked node
    /// features `x` (and edge sums) into one row of the `graphs × hidden`
    /// result, by sum Readout. Dropout masks are drawn first, graph by
    /// graph and layer by layer, as a pass over one graph at a time draws
    /// them; with the per-graph weight gradients of [`Tape::matmul`], the
    /// pass is bit-identical to running each graph alone, in order.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        graphs: &Arc<PackedGraphs>,
        edge_sum: Option<Var>,
    ) -> Var {
        let mut masks: Vec<Vec<Vec<f32>>> = vec![Vec::new(); self.layers.len()];
        for g in 0..graphs.num_graphs() {
            for (layer, stacked) in self.layers.iter().zip(&mut masks) {
                let drawn = layer.mlp.dropout_masks(tape, graphs.rows(g).len());
                stacked.resize_with(drawn.len(), Vec::new);
                for (s, d) in stacked.iter_mut().zip(drawn) {
                    s.extend(d);
                }
            }
        }
        let mut h = x;
        for (layer, masks) in self.layers.iter().zip(masks) {
            let agg = tape.graph_agg(h, graphs, layer.aggregation);
            let input = match edge_sum {
                // without edge sums an edge-labeled layer fails the MLP's
                // input-width check
                Some(es) if layer.edge_dim > 0 => tape.concat_cols(agg, es),
                _ => agg,
            };
            h = layer.mlp.forward(tape, store, input, Some(graphs), masks);
        }
        tape.sum_rows(h, Some(graphs))
    }

    /// Inference forward without a tape; bit-identical to
    /// [`GinEncoder::forward`] on an eval tape.
    ///
    /// It runs on distinct rows from start to end. Each layer keys every
    /// packed row by integers: the id of its row in the layer's input, the
    /// id of its edge sum, and its neighbors' ids in packed order. Rows
    /// with equal keys add equal values in the same order, so their
    /// aggregates, and the MLP's row-by-row outputs, are bit-equal; both
    /// run once per distinct key, and the keys' ids index the layer's
    /// output. The readout adds each graph's rows through the index, in
    /// row order. No step builds a matrix with one row per packed row.
    pub fn infer(
        &self,
        store: &ParamStore,
        x: &IndexedRows,
        graphs: &PackedGraphs,
        edge_sum: Option<&IndexedRows>,
    ) -> Mat {
        assert_eq!(x.rows(), graphs.num_nodes(), "packed row mismatch");
        let mut h: Option<IndexedRows> = None;
        for layer in &self.layers {
            let cur = h.as_ref().unwrap_or(x);
            // without edge sums an edge-labeled layer fails the MLP's
            // input-width check
            let es = edge_sum.filter(|_| layer.edge_dim > 0);
            let (index, firsts) = {
                let _span = Span::enter("model.gin.key");
                number_by_key(graphs.num_nodes(), |r, key| {
                    key.push(cur.index[r]);
                    key.extend(es.map(|es| es.index[r]));
                    key.extend(graphs.neighbors(r).iter().map(|&u| cur.index[u]));
                })
            };
            alss_telemetry::add("model.gin.rows", graphs.num_nodes() as u64);
            alss_telemetry::add("model.gin.mlp_rows", firsts.len() as u64);
            let input = {
                let _span = Span::enter("model.gin.agg");
                let width = cur.distinct.cols();
                let es_width = es.map_or(0, |es| es.distinct.cols());
                let mut input = Mat::zeros(firsts.len(), width + es_width);
                for (k, &r) in firsts.iter().enumerate() {
                    let (agg, edges) = input.row_mut(k).split_at_mut(width);
                    let nbrs = graphs.neighbors(r).iter().map(|&u| cur.row(u));
                    layer.aggregation.aggregate_row(agg, cur.row(r), nbrs);
                    if let Some(es) = es {
                        edges.copy_from_slice(es.row(r));
                    }
                }
                input
            };
            let _span = Span::enter("model.gin.mlp");
            let distinct = layer.mlp.infer(store, &input);
            h = Some(IndexedRows { distinct, index });
        }
        let h = h.as_ref().unwrap_or(x);
        let mut out = Mat::zeros(graphs.num_graphs(), h.distinct.cols());
        for g in 0..graphs.num_graphs() {
            for r in graphs.rows(g) {
                for (o, &e) in out.row_mut(g).iter_mut().zip(h.row(r)) {
                    *o += e;
                }
            }
        }
        out
    }

    /// Representation width.
    pub fn out_dim(&self) -> usize {
        // Constructors reject zero-layer encoders; 0 keeps this total.
        self.layers.last().map_or(0, |l| l.mlp.out_dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A ReLU encoder without edge features or dropout, its weights drawn
    /// from `seed`.
    fn encoder(
        store: &mut ParamStore,
        (in_dim, hidden, layers): (usize, usize, usize),
        aggregation: Aggregation,
        seed: u64,
    ) -> GinEncoder {
        let mut rng = SmallRng::seed_from_u64(seed);
        GinEncoder::new(
            store,
            "g",
            in_dim,
            hidden,
            layers,
            0,
            0.0,
            Activation::Relu,
            aggregation,
            &mut rng,
        )
        .unwrap()
    }

    /// Encode one graph, given as its nodes' neighbor lists.
    fn encode_graph(enc: &GinEncoder, store: &ParamStore, feats: Mat, adj: &[&[u32]]) -> Vec<f32> {
        let graphs = Arc::new(PackedGraphs::new([adj]));
        let mut t = Tape::eval();
        let x = t.input(feats);
        let h = enc.forward(&mut t, store, x, &graphs, None);
        t.value(h).data().to_vec()
    }

    #[test]
    fn isomorphic_substructures_get_equal_representations() {
        let mut store = ParamStore::new();
        let enc = encoder(&mut store, (2, 8, 2), Aggregation::Sum, 3);
        // path a-b-c with features in two different node orders
        let f1 = Mat::from_vec(3, 2, vec![1., 0., 0., 1., 1., 0.]);
        // permuted: node order c, a, b
        let f2 = Mat::from_vec(3, 2, vec![1., 0., 1., 0., 0., 1.]);
        let h1 = encode_graph(&enc, &store, f1, &[&[1], &[0, 2], &[1]]);
        let h2 = encode_graph(&enc, &store, f2, &[&[2], &[2], &[0, 1]]);
        for (a, b) in h1.iter().zip(&h2) {
            assert!((a - b).abs() < 1e-4, "{h1:?} vs {h2:?}");
        }
    }

    #[test]
    fn non_isomorphic_substructures_differ() {
        let mut store = ParamStore::new();
        let enc = encoder(&mut store, (1, 8, 2), Aggregation::Sum, 4);
        let feats = Mat::from_vec(3, 1, vec![1., 1., 1.]);
        let path = encode_graph(&enc, &store, feats.clone(), &[&[1], &[0, 2], &[1]]);
        let tri = encode_graph(&enc, &store, feats, &[&[1, 2], &[0, 2], &[0, 1]]);
        let diff: f32 = path.iter().zip(&tri).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4, "path and triangle should differ");
    }

    #[test]
    fn mean_aggregation_divides_by_degree() {
        // single layer, identity-ish check via layer forward values:
        // star center with 3 neighbors vs leaf — mean normalizes the sum
        let mut store = ParamStore::new();
        let sum_enc = encoder(&mut store, (1, 4, 1), Aggregation::Sum, 6);
        let mut store2 = ParamStore::new();
        let mean_enc = encoder(&mut store2, (1, 4, 1), Aggregation::Mean, 6);
        // same seed → same weights; mean output must differ on non-regular graphs
        let star: &[&[u32]] = &[&[1, 2, 3], &[0], &[0], &[0]];
        let h_sum = encode_graph(&sum_enc, &store, Mat::full(4, 1, 1.0), star);
        let h_mean = encode_graph(&mean_enc, &store2, Mat::full(4, 1, 1.0), star);
        let d: f32 = h_sum.iter().zip(&h_mean).map(|(a, b)| (a - b).abs()).sum();
        assert!(d > 1e-4, "mean and sum aggregation should differ: {d}");
    }

    #[test]
    fn mean_aggregation_cannot_distinguish_multiplicity() {
        // mean over identical neighbor features is invariant to the number
        // of neighbors — exactly the injectivity failure GIN avoids.
        let mut store = ParamStore::new();
        let enc = encoder(&mut store, (1, 4, 1), Aggregation::Mean, 7);
        // stars with 2 and 4 leaves, all features equal: under mean every
        // node's aggregate is the same, so the readout per node matches
        let per_node = |k: usize| {
            let leaves: Vec<u32> = (1..=k as u32).collect();
            let mut star: Vec<&[u32]> = vec![&leaves];
            star.extend(std::iter::repeat_n(&[0][..], k));
            let readout = encode_graph(&enc, &store, Mat::full(k + 1, 1, 1.0), &star);
            readout
                .iter()
                .map(|v| v / (k + 1) as f32)
                .collect::<Vec<_>>()
        };
        for (a, b) in per_node(2).iter().zip(&per_node(4)) {
            assert!((a - b).abs() < 1e-5, "mean-aggregated nodes should match");
        }
    }

    #[test]
    fn encoder_output_width() {
        let mut store = ParamStore::new();
        let enc = encoder(&mut store, (4, 16, 3), Aggregation::Sum, 5);
        assert_eq!(enc.out_dim(), 16);
    }
}
