//! Query decomposition into per-root BFS-tree substructures (§4.2),
//! written straight into [`PackedGraphs`], the layout the GIN reads.

use crate::{Graph, LabelId, NodeId, WILDCARD};

/// Several graphs packed into one block-diagonal graph, the layout GIN
/// runs on: node `v` of graph `g` is row `rows(g).start + v` of the
/// stacked node matrix, and each node keeps its neighbors in their
/// original order. Training and inference both aggregate over all graphs
/// at once, the way a mini-batch of graphs is one disconnected graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedGraphs {
    /// Graph `g` owns rows `node_start[g]..node_start[g + 1]`.
    node_start: Vec<usize>,
    /// Row `v`'s neighbors are `nbrs[nbr_start[v]..nbr_start[v + 1]]`.
    nbr_start: Vec<usize>,
    nbrs: Vec<usize>,
}

impl Default for PackedGraphs {
    fn default() -> Self {
        PackedGraphs {
            node_start: vec![0],
            nbr_start: vec![0],
            nbrs: Vec::new(),
        }
    }
}

impl PackedGraphs {
    /// Pack the given graphs in order. Each graph is its nodes' neighbor
    /// lists, in node order, with neighbors numbered within the graph.
    pub fn new<G, N>(graphs: impl IntoIterator<Item = G>) -> Self
    where
        G: IntoIterator<Item = N>,
        N: AsRef<[u32]>,
    {
        let mut packed = PackedGraphs::default();
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
}

/// A query's substructures `s_i`, one `l`-hop BFS tree per root, packed
/// into the block-diagonal layout the GIN reads.
///
/// Tree `g` is rooted at query node `g` and owns rows `graphs.rows(g)`, in
/// BFS discovery order (the root first). A row's neighbors are its parent,
/// then its children in discovery order, which is ascending row order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decomposition {
    /// The trees, one packed graph per query node, in node order.
    pub graphs: PackedGraphs,
    /// Query node of each packed row.
    pub nodes: Vec<NodeId>,
    /// Label of each row's edge to its parent in the query ([`WILDCARD`]
    /// for roots and unlabeled edges).
    pub parent_edge_labels: Vec<LabelId>,
}

impl Decomposition {
    /// Number of substructures (one per query node).
    pub fn len(&self) -> usize {
        self.graphs.num_graphs()
    }

    /// Whether the query had no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Query nodes of tree `g`, in BFS discovery order (`[0]` is its root).
    pub fn query_nodes(&self, g: usize) -> &[NodeId] {
        &self.nodes[self.graphs.rows(g)]
    }

    /// Query label of the tree edge between neighboring rows `a` and `b`
    /// ([`WILDCARD`] if unlabeled): the child, the later row, records the
    /// label of its edge to its parent.
    pub fn edge_label(&self, a: usize, b: usize) -> LabelId {
        self.parent_edge_labels[a.max(b)]
    }
}

/// Decompose a query graph `q` into `|V_q|` substructures, the `l`-hop BFS
/// tree rooted at every query node (§4.2; the paper uses `l = 3`): the
/// trees [`crate::bfs_tree`] finds, in one pass per root over one reused
/// visited array.
///
/// The decomposition is *complete*: the union of substructure nodes is
/// `V_q` and (for `l >= 1` and connected `q`) the union of substructure
/// edges is `E_q`, because every edge `(u,v)` is a depth-1 tree edge of the
/// tree rooted at `u`. Substructures deliberately overlap so the attention
/// aggregator can learn their interrelation.
pub fn decompose(q: &Graph, l: u32) -> Decomposition {
    let _span = alss_telemetry::Span::enter("decompose");
    let mut d = Decomposition {
        graphs: PackedGraphs::default(),
        nodes: Vec::new(),
        parent_edge_labels: Vec::new(),
    };
    let (g, mut seen) = (&mut d.graphs, vec![false; q.num_nodes()]);
    // Parent row and depth of each row. The rows double as the BFS queue,
    // so a row's children are found, and get rows, while it is written.
    let mut tree: Vec<(Option<usize>, u32)> = Vec::new();
    for root in q.nodes() {
        let base = d.nodes.len();
        seen[root as usize] = true;
        d.nodes.push(root);
        d.parent_edge_labels.push(WILDCARD);
        tree.push((None, 0));
        for r in base.. {
            let Some(&(parent, depth)) = tree.get(r - base) else {
                break;
            };
            g.nbrs.extend(parent);
            let v = d.nodes[r];
            let labels = q.neighbor_edge_labels(v);
            for (i, &u) in q.neighbors(v).iter().enumerate() {
                if depth < l && !seen[u as usize] {
                    seen[u as usize] = true;
                    g.nbrs.push(d.nodes.len());
                    d.nodes.push(u);
                    d.parent_edge_labels
                        .push(labels.map_or(WILDCARD, |ls| ls[i]));
                    tree.push((Some(r), depth + 1));
                }
            }
            g.nbr_start.push(g.nbrs.len());
        }
        g.node_start.push(d.nodes.len());
        for &v in &d.nodes[base..] {
            seen[v as usize] = false;
        }
        tree.clear();
    }
    alss_telemetry::add("decompose.substructures", d.len() as u64);
    d
}

/// Check the completeness property of a decomposition against its query:
/// every query node and (if `q` is connected and `l >= 1`) every query edge
/// is covered by some substructure. Used by tests.
pub fn is_complete(q: &Graph, d: &Decomposition) -> bool {
    let covers = |a: NodeId, b: NodeId| {
        (0..d.nodes.len())
            .any(|r| d.nodes[r] == a && d.graphs.neighbors(r).iter().any(|&u| d.nodes[u] == b))
    };
    q.nodes().all(|v| d.nodes.contains(&v)) && q.edges().all(|e| covers(e.u, e.v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::GraphBuilder;

    fn square_with_diagonal() -> Graph {
        graph_from_edges(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    }

    #[test]
    fn one_substructure_per_node() {
        let q = square_with_diagonal();
        let d = decompose(&q, 3);
        assert_eq!(d.len(), 4);
        for g in 0..d.len() {
            assert_eq!(d.query_nodes(g)[0], g as NodeId);
            assert_eq!(d.parent_edge_labels[d.graphs.rows(g).start], WILDCARD);
        }
    }

    #[test]
    fn decomposition_is_complete() {
        let q = square_with_diagonal();
        for l in 1..=3 {
            let d = decompose(&q, l);
            assert!(is_complete(&q, &d), "incomplete at l={l}");
        }
    }

    #[test]
    fn substructures_are_trees() {
        let q = square_with_diagonal();
        let d = decompose(&q, 3);
        for g in 0..d.len() {
            // tree: every row but the root has a parent, |E| = |V| - 1
            let rows = d.graphs.rows(g);
            let degrees: usize = rows.clone().map(|r| d.graphs.neighbors(r).len()).sum();
            assert_eq!(degrees, 2 * (rows.len() - 1));
            for r in rows.clone().skip(1) {
                assert!(d.graphs.neighbors(r)[0] < r, "parent precedes child");
            }
        }
    }

    #[test]
    fn edge_labels_survive_decomposition() {
        let mut b = GraphBuilder::new(3);
        b.set_label(0, 0).set_label(1, 1).set_label(2, 2);
        b.add_labeled_edge(0, 1, 5).add_labeled_edge(1, 2, 6);
        let q = b.build();
        let d = decompose(&q, 3);
        // tree 0 is the path 0-1-2; its child rows carry labels 5 and 6
        assert_eq!(d.query_nodes(0), &[0, 1, 2]);
        assert_eq!(&d.parent_edge_labels[0..3], &[WILDCARD, 5, 6]);
        assert_eq!((d.edge_label(0, 1), d.edge_label(2, 1)), (5, 6));
    }
}
