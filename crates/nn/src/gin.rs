//! Graph Isomorphism Network (GIN) layers — the `σ(·)` substructure
//! encoder of LSS (§4.2).
//!
//! A GIN layer computes `h_v' = MLP((1+ε) h_v + Σ_{u∈N(v)} h_u)` (Xu et
//! al., ICLR'19). The paper selects GIN over GCN/GAT/GraphSAGE because its
//! injective aggregate/combine/Readout make it as powerful as the WL test —
//! isomorphic substructures get identical representations, matching the
//! inductive bias of counting. We implement GIN-0 (ε fixed at 0, the
//! common variant) with a per-layer 2-layer MLP and ReLU.
//!
//! Edge labels (Eq. 4) are supported by concatenating, per node, the sum of
//! incident initial edge features to the aggregated neighbor sum — exact for
//! sum aggregation since `Σ_u [h_u ‖ e_uv] = [Σ_u h_u ‖ Σ_u e_uv]`.
//!
//! Graphs reach GIN in one format, [`PackedGraphs`]: a query's
//! substructures as one block-diagonal graph, with their node features
//! and edge sums stacked in the same row order.

use crate::linear::{Activation, Mlp};
use crate::mat::Mat;
use crate::param::ParamStore;
use crate::tape::{Tape, Var};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Neighborhood aggregation variant (the GNN ablation of DESIGN.md):
/// injective **sum** (GIN, as powerful as the WL test — the paper's
/// choice) or **mean** (GCN/GraphSAGE-style, not injective: it cannot
/// distinguish neighborhoods that differ only in multiplicity).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Aggregation {
    /// `(1+ε)h_v + Σ_u h_u` — injective, WL-powerful (GIN).
    #[default]
    Sum,
    /// `((1+ε)h_v + Σ_u h_u) / (deg(v)+1)` — mean aggregation.
    Mean,
}

/// One GIN layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GinLayer {
    mlp: Mlp,
    eps: f32,
    edge_dim: usize,
    #[serde(default)]
    aggregation: Aggregation,
}

impl GinLayer {
    /// Forward for one substructure, graph `g` of `graphs`.
    ///
    /// * `h` — `n × in_dim` features of the graph's `n` nodes;
    /// * `edge_sum` — `n × edge_dim` sums of incident initial edge features
    ///   (required iff the layer was built with `edge_dim > 0`).
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        h: Var,
        graphs: &Arc<PackedGraphs>,
        g: usize,
        edge_sum: Option<Var>,
    ) -> Var {
        let mut agg = tape.graph_agg(h, graphs, g, self.eps);
        if self.aggregation == Aggregation::Mean {
            // divide each node's aggregate by deg(v)+1 (constant wrt params)
            let dim = tape.value(agg).cols();
            let rows = graphs.rows(g);
            let inv: Vec<f32> = rows
                .clone()
                .flat_map(|v| {
                    std::iter::repeat_n(1.0 / (graphs.neighbors(v).len() as f32 + 1.0), dim)
                })
                .collect();
            let inv_m = tape.input(Mat::from_vec(rows.len(), dim, inv));
            agg = tape.mul(agg, inv_m);
        }
        let input = match (self.edge_dim, edge_sum) {
            (0, _) => agg,
            (_, Some(es)) => tape.concat_cols(agg, es),
            (d, None) => {
                // API misuse: the layer was built with `edge_dim = d` but
                // called without edge features. Falling through with the
                // node aggregate alone trips the MLP's input-width check,
                // so release builds still fail loudly at the right layer.
                debug_assert!(false, "GIN layer expects {d}-dim edge features");
                agg
            }
        };
        self.mlp.forward(tape, store, input)
    }

    /// Inference forward for every graph of `graphs` at once, without a
    /// tape; row for row bit-identical to [`GinLayer::forward`] on an eval
    /// tape. `h` and `edge_sum` are stacked in `graphs`' row order.
    pub fn infer(
        &self,
        store: &ParamStore,
        h: &Mat,
        graphs: &PackedGraphs,
        edge_sum: Option<&Mat>,
    ) -> Mat {
        assert_eq!(h.rows(), graphs.num_nodes(), "packed row mismatch");
        let mut agg = h.aggregate_neighbors(self.eps, |v| graphs.neighbors(v).iter().copied());
        if self.aggregation == Aggregation::Mean {
            for v in 0..agg.rows() {
                let inv = 1.0 / (graphs.neighbors(v).len() as f32 + 1.0);
                agg.row_mut(v).iter_mut().for_each(|e| *e *= inv);
            }
        }
        let input = match (self.edge_dim, edge_sum) {
            (0, _) => agg,
            (_, Some(es)) => agg.concat_cols(es),
            (d, None) => {
                // Same misuse fall-through as `forward`.
                debug_assert!(false, "GIN layer expects {d}-dim edge features");
                agg
            }
        };
        // The MLP maps each row on its own (`Mat::matmul` row i reads only
        // lhs row i), so each distinct input row is computed once and its
        // output copied to the duplicates, with no change in any bit.
        let (distinct, index) = input.distinct_rows();
        self.mlp.infer(store, &distinct).gather_rows(&index)
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.mlp.out_dim()
    }
}

/// A `K`-layer GIN encoder with sum Readout: substructure → `1 × out_dim`
/// representation `h_{s_i}` (Algorithm 1, lines 3–7).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GinEncoder {
    layers: Vec<GinLayer>,
}

impl GinEncoder {
    /// `num_layers` GIN layers from `in_dim` to `hidden` (all hidden layers
    /// share the width, per the paper's setting of 3×64). ReLU activation
    /// and sum aggregation, the canonical GIN choices; use
    /// [`GinEncoder::with_options`] for others (e.g. a smooth activation in
    /// gradient checks).
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
        rng: &mut R,
    ) -> Self {
        Self::with_options(
            store,
            name,
            in_dim,
            hidden,
            num_layers,
            edge_dim,
            dropout,
            Activation::Relu,
            Aggregation::Sum,
            rng,
        )
    }

    /// Fully-parameterized constructor (activation + aggregation).
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per encoder dimension and option"
    )]
    pub fn with_options<R: Rng>(
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
    ) -> Self {
        assert!(num_layers >= 1, "GIN encoder needs at least one layer");
        let mut layers = Vec::with_capacity(num_layers);
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
            );
            layers.push(GinLayer {
                mlp,
                eps: 0.0,
                edge_dim,
                aggregation,
            });
            d = hidden;
        }
        GinEncoder { layers }
    }

    /// Encode one substructure, graph `g` of `graphs`: its node features
    /// `x (n × in_dim)` → graph-level representation (`1 × hidden`) via
    /// sum Readout.
    pub fn encode(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        graphs: &Arc<PackedGraphs>,
        g: usize,
        edge_sum: Option<Var>,
    ) -> Var {
        let mut h = x;
        for layer in &self.layers {
            h = layer.forward(tape, store, h, graphs, g, edge_sum);
        }
        tape.sum_rows(h)
    }

    /// Inference forward without a tape: encode every graph of `graphs`
    /// from its stacked node features `x` into one row of the
    /// `graphs × hidden` result. Row `g` is bit-identical to
    /// [`GinEncoder::encode`] of graph `g` alone on an eval tape.
    pub fn infer(
        &self,
        store: &ParamStore,
        x: &Mat,
        graphs: &PackedGraphs,
        edge_sum: Option<&Mat>,
    ) -> Mat {
        let mut h: Option<Mat> = None;
        for layer in &self.layers {
            h = Some(layer.infer(store, h.as_ref().unwrap_or(x), graphs, edge_sum));
        }
        let h = h.as_ref().unwrap_or(x);
        let mut out = Mat::zeros(graphs.num_graphs(), h.cols());
        for g in 0..graphs.num_graphs() {
            out.row_mut(g)
                .copy_from_slice(h.sum_rows_range(graphs.rows(g)).data());
        }
        out
    }

    /// Representation width.
    pub fn out_dim(&self) -> usize {
        // Constructors reject zero-layer encoders; 0 keeps this total.
        self.layers.last().map_or(0, |l| l.out_dim())
    }
}

/// Several graphs packed into one block-diagonal graph, the layout GIN
/// runs on: node `v` of graph `g` is row `rows(g).start + v` of the
/// stacked node matrix, and each node keeps its neighbors in their
/// original order. Inference aggregates over all graphs at once; a
/// training tape aggregates one graph at a time through
/// [`PackedGraphs::local_neighbors`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedGraphs {
    /// Graph `g` owns rows `node_start[g]..node_start[g + 1]`.
    node_start: Vec<usize>,
    /// Row `v`'s neighbors are `nbrs[nbr_start[v]..nbr_start[v + 1]]`.
    nbr_start: Vec<usize>,
    nbrs: Vec<usize>,
}

impl PackedGraphs {
    /// Pack the given graphs in order. Each graph is its nodes' neighbor
    /// lists, in node order, with neighbors numbered within the graph.
    pub fn new<G, N>(graphs: impl IntoIterator<Item = G>) -> Self
    where
        G: IntoIterator<Item = N>,
        N: AsRef<[u32]>,
    {
        let mut packed = PackedGraphs {
            node_start: vec![0],
            nbr_start: vec![0],
            nbrs: Vec::new(),
        };
        for graph in graphs {
            let base = packed.num_nodes();
            for nbrs in graph {
                let nbrs = nbrs.as_ref().iter().map(|&u| base + u as usize);
                packed.nbrs.extend(nbrs);
                packed.nbr_start.push(packed.nbrs.len());
            }
            packed.node_start.push(packed.num_nodes());
        }
        packed
    }

    /// Number of packed graphs.
    pub fn num_graphs(&self) -> usize {
        self.node_start.len() - 1
    }

    /// Total node count (rows of the stacked node matrix).
    pub fn num_nodes(&self) -> usize {
        self.nbr_start.len() - 1
    }

    /// Rows of graph `g`.
    pub fn rows(&self, g: usize) -> std::ops::Range<usize> {
        self.node_start[g]..self.node_start[g + 1]
    }

    /// Packed neighbor rows of row `v`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.nbrs[self.nbr_start[v]..self.nbr_start[v + 1]]
    }

    /// Neighbors of node `v` of graph `g`, numbered within that graph.
    pub fn local_neighbors(&self, g: usize, v: usize) -> impl Iterator<Item = usize> + '_ {
        let base = self.node_start[g];
        self.neighbors(base + v).iter().map(move |&u| u - base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Encode one graph, given as its nodes' neighbor lists.
    fn encode_graph(enc: &GinEncoder, store: &ParamStore, feats: Mat, adj: &[&[u32]]) -> Vec<f32> {
        let graphs = Arc::new(PackedGraphs::new([adj]));
        let mut t = Tape::eval();
        let x = t.input(feats);
        let h = enc.encode(&mut t, store, x, &graphs, 0, None);
        t.value(h).data().to_vec()
    }

    #[test]
    fn isomorphic_substructures_get_equal_representations() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let enc = GinEncoder::new(&mut store, "g", 2, 8, 2, 0, 0.0, &mut rng);
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
        let mut rng = SmallRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let enc = GinEncoder::new(&mut store, "g", 1, 8, 2, 0, 0.0, &mut rng);
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
        let mut rng = SmallRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let sum_enc = GinEncoder::new(&mut store, "s", 1, 4, 1, 0, 0.0, &mut rng);
        let mut rng2 = SmallRng::seed_from_u64(6);
        let mut store2 = ParamStore::new();
        let mean_enc = GinEncoder::with_options(
            &mut store2,
            "s",
            1,
            4,
            1,
            0,
            0.0,
            Activation::Relu,
            Aggregation::Mean,
            &mut rng2,
        );
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
        let mut rng = SmallRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let enc = GinEncoder::with_options(
            &mut store,
            "m",
            1,
            4,
            1,
            0,
            0.0,
            Activation::Relu,
            Aggregation::Mean,
            &mut rng,
        );
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
        let mut rng = SmallRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let enc = GinEncoder::new(&mut store, "g", 4, 16, 3, 0, 0.5, &mut rng);
        assert_eq!(enc.out_dim(), 16);
    }
}
