//! Shared label index and lightweight walk-order computation used by the
//! sampling-based estimators.

use alss_graph::labels::LabelStats;
use alss_graph::{Graph, LabelId, NodeId, WILDCARD};
use rand::Rng;
use std::collections::HashMap;

/// Per-label node lists over a data graph, shared by WJ / JSUB / IMPR.
pub struct LabelIndex<'g> {
    data: &'g Graph,
    by_label: HashMap<LabelId, Vec<NodeId>>,
    stats: LabelStats,
}

impl<'g> LabelIndex<'g> {
    /// Build from a data graph (one linear scan).
    pub fn new(data: &'g Graph) -> Self {
        let mut by_label: HashMap<LabelId, Vec<NodeId>> = HashMap::new();
        for v in data.nodes() {
            by_label.entry(data.label(v)).or_default().push(v);
        }
        LabelIndex {
            data,
            by_label,
            stats: LabelStats::new(data),
        }
    }

    /// The underlying data graph.
    pub fn data(&self) -> &'g Graph {
        self.data
    }

    /// Label statistics of the data graph.
    pub fn stats(&self) -> &LabelStats {
        &self.stats
    }

    /// Number of data nodes matching a query label.
    pub fn candidate_count(&self, l: LabelId) -> usize {
        if l == WILDCARD {
            self.data.num_nodes()
        } else {
            self.by_label.get(&l).map_or(0, |v| v.len())
        }
    }

    /// Uniformly sample a data node matching a query label.
    pub fn sample_candidate<R: Rng>(&self, l: LabelId, rng: &mut R) -> Option<NodeId> {
        if l == WILDCARD {
            let n = self.data.num_nodes();
            (n > 0).then(|| alss_graph::node_id(rng.gen_range(0..n)))
        } else {
            let v = self.by_label.get(&l)?;
            (!v.is_empty()).then(|| v[rng.gen_range(0..v.len())])
        }
    }
}

/// A traversal order over a query graph for random-walk sampling: nodes
/// ordered so each node other than the first of its connected component
/// has at least one earlier neighbor; per position, the earlier neighbor
/// positions.
#[derive(Clone, Debug)]
pub struct WalkOrder {
    /// Query node at each position.
    pub order: Vec<NodeId>,
    /// For each position, the positions `< i` adjacent in the query.
    pub backward: Vec<Vec<usize>>,
}

/// Compute a walk order starting at the node with the fewest candidate
/// nodes in the data (rarest label), extending by maximum connectivity —
/// the plan heuristic G-CARE's WJ uses. Unlike the exact engine's order
/// this needs no per-node data scans, only label statistics.
pub fn walk_order(q: &Graph, index: &LabelIndex<'_>) -> WalkOrder {
    let n = q.num_nodes();
    assert!(n > 0, "empty query");
    let mut placed = vec![false; n];
    // `n > 0` is asserted above; the fallback keeps the expression total.
    let start = q
        .nodes()
        .min_by_key(|&v| (index.candidate_count(q.label(v)), v))
        .unwrap_or(0);
    let mut order = vec![start];
    placed[start as usize] = true;
    while order.len() < n {
        let mut best: Option<(usize, usize, NodeId)> = None;
        for v in q.nodes() {
            if placed[v as usize] {
                continue;
            }
            let conn = q
                .neighbors(v)
                .iter()
                .filter(|&&u| placed[u as usize])
                .count();
            let key = (usize::MAX - conn, index.candidate_count(q.label(v)), v);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let Some((_, _, v)) = best else {
            // Unreachable while `order.len() < n`: some node is unplaced.
            debug_assert!(false, "remaining node");
            break;
        };
        order.push(v);
        placed[v as usize] = true;
    }
    let mut pos = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v as usize] = i;
    }
    let backward = order
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let mut b: Vec<usize> = q
                .neighbors(v)
                .iter()
                .map(|&u| pos[u as usize])
                .filter(|&j| j < i)
                .collect();
            b.sort_unstable();
            b
        })
        .collect();
    WalkOrder { order, backward }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alss_graph::builder::graph_from_edges;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn data() -> Graph {
        graph_from_edges(&[0, 0, 0, 1, 2], &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn candidate_counts() {
        let d = data();
        let idx = LabelIndex::new(&d);
        assert_eq!(idx.candidate_count(0), 3);
        assert_eq!(idx.candidate_count(2), 1);
        assert_eq!(idx.candidate_count(7), 0);
        assert_eq!(idx.candidate_count(WILDCARD), 5);
    }

    #[test]
    fn sampling_respects_labels() {
        let d = data();
        let idx = LabelIndex::new(&d);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..20 {
            let v = idx.sample_candidate(0, &mut rng).unwrap();
            assert_eq!(d.label(v), 0);
        }
        assert!(idx.sample_candidate(9, &mut rng).is_none());
    }

    #[test]
    fn walk_order_is_connected_and_starts_rare() {
        let d = data();
        let idx = LabelIndex::new(&d);
        let q = graph_from_edges(&[0, 0, 2], &[(0, 1), (1, 2)]);
        let wo = walk_order(&q, &idx);
        assert_eq!(wo.order[0], 2, "rarest label (2) first");
        for i in 1..wo.order.len() {
            assert!(!wo.backward[i].is_empty());
        }
    }
}
