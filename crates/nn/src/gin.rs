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

use crate::linear::{Activation, Mlp};
use crate::mat::Mat;
use crate::param::ParamStore;
use crate::tape::{Adjacency, Tape, Var};
use rand::Rng;
use serde::{Deserialize, Serialize};

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
    /// A layer mapping `in_dim` (+ `edge_dim` if edge-labeled) features to
    /// `out_dim`, with one hidden layer of `out_dim` units.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per layer dimension and option"
    )]
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        edge_dim: usize,
        dropout: f32,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let mlp = Mlp::new(
            store,
            name,
            &[in_dim + edge_dim, out_dim, out_dim],
            activation,
            dropout,
            rng,
        );
        GinLayer {
            mlp,
            eps: 0.0,
            edge_dim,
            aggregation: Aggregation::Sum,
        }
    }

    /// Switch this layer to mean aggregation (GNN ablation).
    pub fn with_aggregation(mut self, aggregation: Aggregation) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Forward for one substructure.
    ///
    /// * `h` — `n × in_dim` node features;
    /// * `adj` — substructure adjacency;
    /// * `edge_sum` — `n × edge_dim` sums of incident initial edge features
    ///   (required iff the layer was built with `edge_dim > 0`).
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        h: Var,
        adj: &Adjacency,
        edge_sum: Option<Var>,
    ) -> Var {
        let mut agg = tape.graph_agg(h, Adjacency::clone(adj), self.eps);
        if self.aggregation == Aggregation::Mean {
            // divide each node's aggregate by deg(v)+1 (constant wrt params)
            let dim = tape.value(agg).cols();
            let inv: Vec<f32> = adj
                .iter()
                .flat_map(|nbrs| std::iter::repeat_n(1.0 / (nbrs.len() as f32 + 1.0), dim))
                .collect();
            let inv_m = tape.input(Mat::from_vec(adj.len(), dim, inv));
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
    /// share the width, per the paper's setting of 3×64). ReLU activation,
    /// the canonical GIN choice; use [`GinEncoder::with_activation`] for a
    /// smooth activation (e.g. in gradient checks).
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
        Self::with_activation(
            store,
            name,
            in_dim,
            hidden,
            num_layers,
            edge_dim,
            dropout,
            Activation::Relu,
            rng,
        )
    }

    /// [`GinEncoder::new`] with an explicit per-layer MLP activation.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per encoder dimension and option"
    )]
    pub fn with_activation<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        num_layers: usize,
        edge_dim: usize,
        dropout: f32,
        activation: Activation,
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
            activation,
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
            layers.push(
                GinLayer::new(
                    store,
                    &format!("{name}.gin{k}"),
                    d,
                    hidden,
                    edge_dim,
                    dropout,
                    activation,
                    rng,
                )
                .with_aggregation(aggregation),
            );
            d = hidden;
        }
        GinEncoder { layers }
    }

    /// Encode one substructure: node features `x (n × in_dim)` →
    /// graph-level representation (`1 × hidden`) via sum Readout.
    pub fn encode(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        adj: &Adjacency,
        edge_sum: Option<Var>,
    ) -> Var {
        let mut h = x;
        for layer in &self.layers {
            h = layer.forward(tape, store, h, adj, edge_sum);
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
            let rows = graphs.rows(g);
            let readout = h.sum_rows_range(rows.start, rows.end);
            out.row_mut(g).copy_from_slice(readout.data());
        }
        out
    }

    /// Representation width.
    pub fn out_dim(&self) -> usize {
        // Constructors reject zero-layer encoders; 0 keeps this total.
        self.layers.last().map_or(0, |l| l.out_dim())
    }
}

/// Several graphs packed into one block-diagonal graph, the layout the
/// inference forward runs GIN on: node `v` of graph `g` is row
/// `rows(g).start + v` of the stacked node matrix, and each node keeps its
/// neighbors in their original order.
#[derive(Clone, Debug)]
pub struct PackedGraphs {
    /// Graph `g` owns rows `node_start[g]..node_start[g + 1]`.
    node_start: Vec<usize>,
    /// Row `v`'s neighbors are `nbrs[nbr_start[v]..nbr_start[v + 1]]`.
    nbr_start: Vec<usize>,
    nbrs: Vec<usize>,
}

impl PackedGraphs {
    /// Pack the given adjacencies in order.
    pub fn new<'a>(graphs: impl IntoIterator<Item = &'a [Vec<u32>]>) -> Self {
        let mut packed = PackedGraphs {
            node_start: vec![0],
            nbr_start: vec![0],
            nbrs: Vec::new(),
        };
        for adj in graphs {
            let base = packed.num_nodes();
            for nbrs in adj {
                packed.nbrs.extend(nbrs.iter().map(|&u| base + u as usize));
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
}

/// Build the adjacency + per-node edge-feature-sum inputs for a
/// substructure given as an `alss_graph::Graph`-agnostic edge list.
/// (Kept here so `alss-nn` stays independent of the graph crate; `alss-core`
/// adapts its `Substructure` type to this form.)
pub fn adjacency_from_edges(n: usize, edges: &[(u32, u32)]) -> Adjacency {
    let mut adj = vec![Vec::new(); n];
    for &(u, v) in edges {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }
    std::sync::Arc::new(adj)
}

/// Sum of initial edge features incident to each node: `edge_feats[i]` is
/// the `dim`-wide feature of `edges[i]`; returns an `n × dim` matrix (all
/// zeros for an edgeless graph, so its width still matches the model).
pub fn edge_feature_sums(
    n: usize,
    dim: usize,
    edges: &[(u32, u32)],
    edge_feats: &[Vec<f32>],
) -> Mat {
    assert_eq!(edges.len(), edge_feats.len(), "edge feature count mismatch");
    let mut m = Mat::zeros(n, dim);
    for (&(u, v), f) in edges.iter().zip(edge_feats) {
        assert_eq!(f.len(), dim, "ragged edge features");
        for (c, &x) in f.iter().enumerate() {
            m.set(u as usize, c, m.get(u as usize, c) + x);
            m.set(v as usize, c, m.get(v as usize, c) + x);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn encode_graph(
        enc: &GinEncoder,
        store: &ParamStore,
        feats: Mat,
        edges: &[(u32, u32)],
    ) -> Vec<f32> {
        let n = feats.rows();
        let adj = adjacency_from_edges(n, edges);
        let mut t = Tape::eval();
        let x = t.input(feats);
        let h = enc.encode(&mut t, store, x, &adj, None);
        t.value(h).data().to_vec()
    }

    #[test]
    fn isomorphic_substructures_get_equal_representations() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let enc = GinEncoder::new(&mut store, "g", 2, 8, 2, 0, 0.0, &mut rng);
        // path a-b-c with features in two different node orders
        let f1 = Mat::from_vec(3, 2, vec![1., 0., 0., 1., 1., 0.]);
        let e1 = vec![(0, 1), (1, 2)];
        // permuted: node order c, a, b
        let f2 = Mat::from_vec(3, 2, vec![1., 0., 1., 0., 0., 1.]);
        let e2 = vec![(2, 0), (1, 2)];
        let h1 = encode_graph(&enc, &store, f1, &e1);
        let h2 = encode_graph(&enc, &store, f2, &e2);
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
        let path = encode_graph(&enc, &store, feats.clone(), &[(0, 1), (1, 2)]);
        let tri = encode_graph(&enc, &store, feats, &[(0, 1), (1, 2), (0, 2)]);
        let diff: f32 = path.iter().zip(&tri).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4, "path and triangle should differ");
    }

    #[test]
    fn edge_feature_sums_accumulate() {
        let m = edge_feature_sums(3, 2, &[(0, 1), (1, 2)], &[vec![1.0, 0.0], vec![0.0, 2.0]]);
        assert_eq!(m.row(0), &[1.0, 0.0]);
        assert_eq!(m.row(1), &[1.0, 2.0]);
        assert_eq!(m.row(2), &[0.0, 2.0]);
        // an edgeless graph still gets `dim` columns
        assert_eq!(edge_feature_sums(1, 2, &[], &[]).shape(), (1, 2));
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
        let adj = adjacency_from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let x = Mat::from_vec(4, 1, vec![1.0, 1.0, 1.0, 1.0]);
        let mut t1 = Tape::eval();
        let xv = t1.input(x.clone());
        let h_sum = sum_enc.encode(&mut t1, &store, xv, &adj, None);
        let mut t2 = Tape::eval();
        let xv2 = t2.input(x);
        let h_mean = mean_enc.encode(&mut t2, &store2, xv2, &adj, None);
        let d: f32 = t1
            .value(h_sum)
            .data()
            .iter()
            .zip(t2.value(h_mean).data())
            .map(|(a, b)| (a - b).abs())
            .sum();
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
        // star with 2 leaves vs star with 4 leaves, all features equal:
        // the CENTER node's representation is identical under mean
        let center_rep = |k: usize| {
            let edges: Vec<(u32, u32)> = (1..=k as u32).map(|i| (0, i)).collect();
            let adj = adjacency_from_edges(k + 1, &edges);
            let x = Mat::full(k + 1, 1, 1.0);
            let mut t = Tape::eval();
            let xv = t.input(x);
            // encode handles readout; we need per-node values, so run a
            // single layer manually via the encoder's first layer
            let h = enc.encode(&mut t, &store, xv, &adj, None);
            let _ = h;
            // use readout difference per node count instead: center row of
            // the layer output equals (sum/(deg+1)) = 1 for any k
            t.value(h).data().to_vec()
        };
        let r2 = center_rep(2);
        let r4 = center_rep(4);
        // readout sums differ by leaf count, but per-node the center value
        // saturates; compare normalized readouts
        let n2: Vec<f32> = r2.iter().map(|v| v / 3.0).collect();
        let n4: Vec<f32> = r4.iter().map(|v| v / 5.0).collect();
        for (a, b) in n2.iter().zip(&n4) {
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
