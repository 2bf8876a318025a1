//! CSR representation of a labeled undirected graph.

use crate::{LabelId, NodeId, WILDCARD};

/// A labeled undirected graph `G = (V, E, L, Σ)` in CSR form (§2).
///
/// * Every node carries a *primary* label (data graphs) or possibly the
///   [`WILDCARD`] label (query graphs). Data nodes may additionally carry
///   extra labels (the paper's yago has multi-label entities; a query
///   label matches a data node if it appears anywhere in the node's label
///   set — see [`Graph::node_matches`]).
/// * Edges are undirected and stored twice in the adjacency (once per
///   direction). [`Graph::edges`] derives the unique edge list (`u < v`)
///   from it, so relational-style estimators can treat `E` as an edge
///   relation.
/// * Edge labels are optional (only the yago-like dataset uses them).
///
/// Construct with [`crate::GraphBuilder`]; the CSR arrays are immutable
/// afterwards, which lets the matching engine and the estimators share the
/// graph freely across threads (`Graph: Send + Sync`).
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    offsets: Vec<u32>,
    neighbors: Vec<NodeId>,
    /// Aligned with `neighbors`; present iff the graph has edge labels.
    adj_edge_labels: Option<Vec<LabelId>>,
    node_labels: Vec<LabelId>,
    /// Extra (secondary) labels per node; present iff any node is
    /// multi-labeled. `extra_labels[v]` is sorted and excludes the
    /// primary label.
    extra_labels: Option<Vec<Vec<LabelId>>>,
    num_node_labels: usize,
    num_edge_labels: usize,
}

/// A borrowed view of one unique undirected edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeRef {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
    /// Edge label, or [`WILDCARD`] if the graph is not edge-labeled.
    pub label: LabelId,
}

impl Graph {
    pub(crate) fn from_parts(
        offsets: Vec<u32>,
        neighbors: Vec<NodeId>,
        adj_edge_labels: Option<Vec<LabelId>>,
        node_labels: Vec<LabelId>,
        extra_labels: Option<Vec<Vec<LabelId>>>,
        num_node_labels: usize,
        num_edge_labels: usize,
    ) -> Self {
        Graph {
            offsets,
            neighbors,
            adj_edge_labels,
            node_labels,
            extra_labels,
            num_node_labels,
            num_edge_labels,
        }
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of unique undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Number of distinct node labels `|Σ|` (upper bound; dense ids).
    #[inline]
    pub fn num_node_labels(&self) -> usize {
        self.num_node_labels
    }

    /// Number of distinct edge labels `|Σ_E|`, 0 if not edge-labeled.
    #[inline]
    pub fn num_edge_labels(&self) -> usize {
        self.num_edge_labels
    }

    /// Whether the graph carries edge labels.
    #[inline]
    pub fn has_edge_labels(&self) -> bool {
        self.adj_edge_labels.is_some()
    }

    /// Primary label of node `v` ([`WILDCARD`] on an unlabeled query node).
    #[inline]
    pub fn label(&self, v: NodeId) -> LabelId {
        self.node_labels[v as usize]
    }

    /// Extra (secondary) labels of node `v`, excluding the primary label.
    /// Empty unless the graph is multi-labeled.
    #[inline]
    pub fn extra_labels(&self, v: NodeId) -> &[LabelId] {
        match &self.extra_labels {
            Some(e) => &e[v as usize],
            None => &[],
        }
    }

    /// All labels of node `v`: the primary label followed by any extras
    /// (the paper's `L(v)` as a set; yago-like graphs are multi-labeled).
    pub fn labels_of(&self, v: NodeId) -> impl Iterator<Item = LabelId> + '_ {
        let primary = self.label(v);
        std::iter::once(primary)
            .filter(move |&l| l != WILDCARD)
            .chain(self.extra_labels(v).iter().copied())
    }

    /// Whether the graph has any multi-labeled node.
    pub fn is_multi_labeled(&self) -> bool {
        self.extra_labels.is_some()
    }

    /// Does data node `dv` satisfy a query node label `ql`? A wildcard
    /// matches anything; otherwise `ql` must appear in the node's label
    /// set (§2: `L(u) = L(f(u))`, generalized to multi-label containment).
    #[inline]
    pub fn node_matches(&self, dv: NodeId, ql: LabelId) -> bool {
        if ql == WILDCARD || self.label(dv) == ql {
            return true;
        }
        self.extra_labels(dv).contains(&ql)
    }

    /// All node labels, indexed by node id.
    #[inline]
    pub fn node_labels(&self) -> &[LabelId] {
        &self.node_labels
    }

    /// Neighbors of `v` (sorted ascending).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        &self.neighbors[s..e]
    }

    /// Edge labels aligned with [`Graph::neighbors`]`(v)`.
    ///
    /// Returns `None` for graphs without edge labels.
    #[inline]
    pub fn neighbor_edge_labels(&self, v: NodeId) -> Option<&[LabelId]> {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        self.adj_edge_labels.as_ref().map(|l| &l[s..e])
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Whether the undirected edge `(u, v)` exists (binary search).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Label of edge `(u, v)`; [`WILDCARD`] if unlabeled; `None` if the edge
    /// does not exist.
    pub fn edge_label(&self, u: NodeId, v: NodeId) -> Option<LabelId> {
        let s = self.offsets[u as usize] as usize;
        let pos = self.neighbors(u).binary_search(&v).ok()?;
        Some(match &self.adj_edge_labels {
            Some(l) => l[s + pos],
            None => WILDCARD,
        })
    }

    /// Iterate over node ids `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..crate::node_id(self.num_nodes())
    }

    /// Iterate over unique undirected edges (`u < v`), sorted by `(u, v)`:
    /// for each `u`, the neighbors above it in its sorted adjacency.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.nodes().flat_map(move |u| {
            let (nbrs, labels) = (self.neighbors(u), self.neighbor_edge_labels(u));
            (nbrs.partition_point(|&v| v < u)..nbrs.len()).map(move |i| EdgeRef {
                u,
                v: nbrs[i],
                label: labels.map_or(WILDCARD, |l| l[i]),
            })
        })
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut cnt = 1;
        while let Some(v) = stack.pop() {
            for &u in self.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    cnt += 1;
                    stack.push(u);
                }
            }
        }
        cnt == n
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn triangle() -> crate::Graph {
        let mut b = GraphBuilder::new(3);
        b.set_label(0, 0).set_label(1, 1).set_label(2, 2);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
        b.build()
    }

    #[test]
    fn csr_basics() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(2), 2);
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.max_degree(), 2);
        assert!(g.is_connected());
    }

    #[test]
    fn edge_iteration_is_unique_and_ordered() {
        let g = triangle();
        let edges: Vec<_> = g.edges().map(|e| (e.u, e.v)).collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
        for e in g.edges() {
            assert!(e.u < e.v);
            assert_eq!(e.label, crate::WILDCARD);
        }
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).add_edge(2, 3);
        let g = b.build();
        assert!(!g.is_connected());
    }

    #[test]
    fn edge_label_lookup() {
        let mut b = GraphBuilder::new(3);
        b.add_labeled_edge(0, 1, 7).add_labeled_edge(1, 2, 9);
        let g = b.build();
        assert_eq!(g.edge_label(0, 1), Some(7));
        assert_eq!(g.edge_label(1, 0), Some(7));
        assert_eq!(g.edge_label(2, 1), Some(9));
        assert_eq!(g.edge_label(0, 2), None);
        assert!(g.has_edge_labels());
        assert_eq!(g.neighbor_edge_labels(1).unwrap(), &[7, 9]);
    }
}
