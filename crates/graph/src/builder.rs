//! Incremental graph builder producing the immutable CSR [`Graph`].

use crate::{Graph, LabelId, NodeId, WILDCARD};

/// Builder for [`Graph`].
///
/// Duplicated edges and self loops are rejected with a panic in debug
/// semantics (they indicate a generator bug); duplicate `add_edge` calls on
/// the same pair are deduplicated silently since random generators commonly
/// re-propose edges.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    labels: Vec<LabelId>,
    extra_labels: Vec<Vec<LabelId>>,
    /// `(u, v, label)` with `u < v`, in insertion order.
    edges: Vec<(NodeId, NodeId, LabelId)>,
    any_edge_label: bool,
}

impl GraphBuilder {
    /// Create a builder for a graph with `n` nodes, all initially
    /// [`WILDCARD`]-labeled.
    pub fn new(n: usize) -> Self {
        Self::with_edge_capacity(n, 0)
    }

    /// [`GraphBuilder::new`] with room reserved for `m` edges, so adding
    /// up to `m` edges never reallocates.
    pub(crate) fn with_edge_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            labels: vec![WILDCARD; n],
            extra_labels: vec![Vec::new(); n],
            edges: Vec::with_capacity(m),
            any_edge_label: false,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Set the label of node `v`.
    pub fn set_label(&mut self, v: NodeId, label: LabelId) -> &mut Self {
        self.labels[v as usize] = label;
        self
    }

    /// Add a secondary label to node `v` (multi-label graphs, e.g. the
    /// yago analogue). Duplicates of the primary or of an existing extra
    /// label are ignored.
    pub fn add_extra_label(&mut self, v: NodeId, label: LabelId) -> &mut Self {
        assert!(label != WILDCARD, "extra labels cannot be wildcards");
        let vi = v as usize;
        if self.labels[vi] != label && !self.extra_labels[vi].contains(&label) {
            self.extra_labels[vi].push(label);
        }
        self
    }

    /// Set all node labels at once (`labels.len()` must equal `n`).
    pub fn set_labels(&mut self, labels: &[LabelId]) -> &mut Self {
        assert_eq!(labels.len(), self.labels.len(), "label count mismatch");
        self.labels.copy_from_slice(labels);
        self
    }

    /// Add an unlabeled undirected edge. Self loops are ignored.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.add_labeled_edge(u, v, WILDCARD)
    }

    /// Add an undirected edge carrying an edge label. Self loops are ignored.
    pub fn add_labeled_edge(&mut self, u: NodeId, v: NodeId, label: LabelId) -> &mut Self {
        assert!(
            (u as usize) < self.labels.len() && (v as usize) < self.labels.len(),
            "edge endpoint out of range"
        );
        if u == v {
            return self;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, label));
        if label != WILDCARD {
            self.any_edge_label = true;
        }
        self
    }

    /// Whether edge `(u,v)` was already added (linear scan; intended for
    /// small query graphs and tests).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.iter().any(|&(x, y, _)| (x, y) == (a, b))
    }

    /// Finalize into an immutable CSR [`Graph`]. Duplicate edges are merged
    /// (keeping the first label).
    pub fn build(mut self) -> Graph {
        let n = self.labels.len();
        // Sort-dedup the edges in place. The sort is stable, so a duplicate
        // keeps the label it was first added with.
        self.edges.sort_by_key(|&(u, v, _)| (u, v));
        self.edges.dedup_by_key(|&mut (u, v, _)| (u, v));
        let m = self.edges.len();

        // CSR offsets from the degrees. Filled from the sorted unique edges,
        // node `x` gets the `u < x` of edges `(u, x)`, then the `v > x` of
        // `(x, v)`, each ascending, so every adjacency comes out sorted.
        let mut offsets = vec![0u32; n + 1];
        for &(u, v, _) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![0 as NodeId; 2 * m];
        let mut adj_labels = self.any_edge_label.then(|| vec![WILDCARD; 2 * m]);
        for &(u, v, l) in &self.edges {
            for (x, y) in [(u, v), (v, u)] {
                let slot = cursor[x as usize] as usize;
                cursor[x as usize] += 1;
                neighbors[slot] = y;
                if let Some(al) = adj_labels.as_mut() {
                    al[slot] = l;
                }
            }
        }
        let num_node_labels = label_count(
            self.labels
                .iter()
                .chain(self.extra_labels.iter().flatten())
                .copied(),
        );
        let num_edge_labels = label_count(adj_labels.iter().flatten().copied());
        // A node's extra labels exclude its primary label even when the
        // primary was set after them, so the text form (`v <id> <label>
        // <extra ...>`) reads back to the same graph.
        for (e, &primary) in self.extra_labels.iter_mut().zip(&self.labels) {
            e.retain(|&l| l != primary);
            e.sort_unstable();
        }
        let any_extra_label = self.extra_labels.iter().any(|e| !e.is_empty());
        Graph::from_parts(
            offsets,
            neighbors,
            adj_labels,
            self.labels,
            any_extra_label.then_some(self.extra_labels),
            num_node_labels,
            num_edge_labels,
        )
    }
}

/// One more than the largest non-wildcard label, or 0 if there is none.
fn label_count(labels: impl Iterator<Item = LabelId>) -> usize {
    labels
        .filter(|&l| l != WILDCARD)
        .map(|l| l as usize + 1)
        .max()
        .unwrap_or(0)
}

/// Convenience: build a node-labeled graph from a label slice and an edge
/// list. Mostly used in tests and examples.
pub fn graph_from_edges(labels: &[LabelId], edges: &[(NodeId, NodeId)]) -> Graph {
    let mut b = GraphBuilder::new(labels.len());
    b.set_labels(labels);
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_edges_are_merged() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).add_edge(1, 0).add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn duplicate_edges_keep_their_first_label() {
        // Enough duplicates that an unstable sort reorders some pairs.
        let mut b = GraphBuilder::new(60);
        for i in 0..59 {
            b.add_labeled_edge(i, i + 1, 1);
        }
        for i in 0..59 {
            b.add_labeled_edge(i + 1, i, 2);
        }
        let g = b.build();
        assert_eq!(g.num_edges(), 59);
        assert!(g.edges().all(|e| e.label == 1), "a later label won");
    }

    #[test]
    fn self_loops_ignored() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0).add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn label_count_tracks_max_label() {
        let g = graph_from_edges(&[0, 5, 2], &[(0, 1), (1, 2)]);
        assert_eq!(g.num_node_labels(), 6);
    }

    #[test]
    fn adjacency_sorted_with_labels_aligned() {
        let mut b = GraphBuilder::new(4);
        b.add_labeled_edge(2, 3, 1)
            .add_labeled_edge(2, 0, 2)
            .add_labeled_edge(2, 1, 3);
        let g = b.build();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbor_edge_labels(2).unwrap(), &[2, 3, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
    }
}
