//! Enumeration of generalized hypertree decompositions (GHDs) for small
//! query graphs (§6.6).
//!
//! A decomposition partitions the query's edges into *bags*; we require
//! each bag's edges to induce a connected subquery and the hypergraph of
//! bag node-sets to be α-acyclic (GYO-reducible), which guarantees an
//! acyclic join tree over the bags exists (joins *among* bags are acyclic,
//! joins *inside* a bag may be cyclic — exactly the paper's framing).
//! The single-bag decomposition (whole query evaluated by one worst-case
//! optimal join) is always included.

use alss_graph::{Graph, GraphBuilder, NodeId, WILDCARD};
use std::collections::BTreeSet;

/// One bag of a decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bag {
    /// Indices into the query's unique edge list.
    pub edges: Vec<usize>,
    /// Query nodes covered by those edges (sorted).
    pub nodes: Vec<NodeId>,
}

/// A candidate GHD: a valid partition of the query edges into bags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decomposition {
    /// The bags; their edge sets partition `E_q`.
    pub bags: Vec<Bag>,
}

impl Decomposition {
    /// Materialize bag `i` as a standalone labeled query graph (local node
    /// ids) together with the local→query node mapping.
    pub fn bag_query(&self, q: &Graph, i: usize) -> (Graph, Vec<NodeId>) {
        let bag = &self.bags[i];
        let qedges: Vec<_> = q.edges().collect();
        let mut local = std::collections::HashMap::new();
        let mut order = Vec::new();
        for &n in &bag.nodes {
            local.insert(n, alss_graph::node_id(order.len()));
            order.push(n);
        }
        let mut b = GraphBuilder::new(order.len());
        for (&n, &l) in order
            .iter()
            .zip(order.iter().map(|&n| local[&n]).collect::<Vec<_>>().iter())
        {
            b.set_label(l, q.label(n));
        }
        for &ei in &bag.edges {
            let e = qedges[ei];
            if e.label == WILDCARD {
                b.add_edge(local[&e.u], local[&e.v]);
            } else {
                b.add_labeled_edge(local[&e.u], local[&e.v], e.label);
            }
        }
        (b.build(), order)
    }
}

/// GYO reduction: is the hypergraph given by `hyperedges` α-acyclic?
pub fn is_alpha_acyclic(hyperedges: &[BTreeSet<NodeId>]) -> bool {
    let mut hs: Vec<BTreeSet<NodeId>> = hyperedges.to_vec();
    loop {
        let mut changed = false;
        // Remove hyperedges contained in another hyperedge.
        let mut keep: Vec<BTreeSet<NodeId>> = Vec::with_capacity(hs.len());
        for (i, h) in hs.iter().enumerate() {
            let contained = hs
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && h.is_subset(other) && !(h == other && j > i));
            if !contained {
                keep.push(h.clone());
            } else {
                changed = true;
            }
        }
        hs = keep;
        // Remove vertices occurring in exactly one hyperedge.
        let mut count: std::collections::HashMap<NodeId, usize> = std::collections::HashMap::new();
        for h in &hs {
            for &v in h {
                *count.entry(v).or_default() += 1;
            }
        }
        for h in &mut hs {
            let before = h.len();
            h.retain(|v| count[v] > 1);
            if h.len() != before {
                changed = true;
            }
        }
        hs.retain(|h| !h.is_empty());
        if hs.len() <= 1 {
            return true;
        }
        if !changed {
            return false;
        }
    }
}

/// Is every bag's edge set connected (as a subgraph)?
fn bag_connected(q: &Graph, edge_ids: &[usize], qedges: &[(NodeId, NodeId)]) -> bool {
    if edge_ids.len() <= 1 {
        return true;
    }
    let _ = q;
    // union-find over bag nodes via edges
    let mut parent: std::collections::HashMap<NodeId, NodeId> = std::collections::HashMap::new();
    fn find(p: &mut std::collections::HashMap<NodeId, NodeId>, x: NodeId) -> NodeId {
        let mut r = x;
        while p[&r] != r {
            r = p[&r];
        }
        let mut c = x;
        while p[&c] != r {
            let next = p[&c];
            p.insert(c, r);
            c = next;
        }
        r
    }
    let mut comps = 0i64;
    for &ei in edge_ids {
        let (u, v) = qedges[ei];
        for &x in &[u, v] {
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(x) {
                e.insert(x);
                comps += 1;
            }
        }
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent.insert(ru, rv);
            comps -= 1;
        }
    }
    comps == 1
}

/// Enumerate all valid decompositions with at most `max_bags` bags.
///
/// Edge partitions are generated in canonical form (edge 0 in bag 0; a new
/// bag may only be opened by the lowest-index unassigned edge), filtered by
/// per-bag connectivity and GYO α-acyclicity. Queries with more than
/// `MAX_EDGES` edges are rejected (the §6.6 workload uses 4/5-node
/// patterns).
pub fn enumerate_ghds(q: &Graph, max_bags: usize) -> Vec<Decomposition> {
    const MAX_EDGES: usize = 12;
    let qedges: Vec<(NodeId, NodeId)> = q.edges().map(|e| (e.u, e.v)).collect();
    let m = qedges.len();
    assert!(m >= 1, "query has no edges");
    assert!(
        m <= MAX_EDGES,
        "GHD enumeration limited to {MAX_EDGES} edges"
    );
    let mut out = Vec::new();
    let mut assign = vec![0usize; m];

    #[expect(
        clippy::too_many_arguments,
        reason = "the recursion threads its state explicitly"
    )]
    fn rec(
        pos: usize,
        num_bags: usize,
        assign: &mut Vec<usize>,
        m: usize,
        max_bags: usize,
        q: &Graph,
        qedges: &[(NodeId, NodeId)],
        out: &mut Vec<Decomposition>,
    ) {
        if pos == m {
            let mut bags: Vec<Vec<usize>> = vec![Vec::new(); num_bags];
            for (e, &b) in assign.iter().enumerate() {
                bags[b].push(e);
            }
            if !bags.iter().all(|b| bag_connected(q, b, qedges)) {
                return;
            }
            let nodesets: Vec<BTreeSet<NodeId>> = bags
                .iter()
                .map(|b| {
                    b.iter()
                        .flat_map(|&ei| [qedges[ei].0, qedges[ei].1])
                        .collect()
                })
                .collect();
            if !is_alpha_acyclic(&nodesets) {
                return;
            }
            out.push(Decomposition {
                bags: bags
                    .into_iter()
                    .zip(nodesets)
                    .map(|(edges, ns)| Bag {
                        edges,
                        nodes: ns.into_iter().collect(),
                    })
                    .collect(),
            });
            return;
        }
        let open = num_bags.min(max_bags);
        for b in 0..open {
            assign[pos] = b;
            rec(pos + 1, num_bags, assign, m, max_bags, q, qedges, out);
        }
        if num_bags < max_bags {
            assign[pos] = num_bags;
            rec(pos + 1, num_bags + 1, assign, m, max_bags, q, qedges, out);
        }
    }
    rec(0, 0, &mut assign, m, max_bags, q, &qedges, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alss_graph::builder::graph_from_edges;

    fn set(v: &[u32]) -> BTreeSet<NodeId> {
        v.iter().copied().collect()
    }

    #[test]
    fn gyo_accepts_acyclic_hypergraphs() {
        // join tree: {0,1},{1,2},{2,3}
        assert!(is_alpha_acyclic(&[
            set(&[0, 1]),
            set(&[1, 2]),
            set(&[2, 3])
        ]));
        // single hyperedge always acyclic
        assert!(is_alpha_acyclic(&[set(&[0, 1, 2])]));
        // triangle covered by one bag
        assert!(is_alpha_acyclic(&[set(&[0, 1, 2]), set(&[2, 3])]));
    }

    #[test]
    fn gyo_rejects_cyclic_hypergraphs() {
        // the triangle as three binary hyperedges is the classic cycle
        assert!(!is_alpha_acyclic(&[
            set(&[0, 1]),
            set(&[1, 2]),
            set(&[0, 2])
        ]));
    }

    #[test]
    fn triangle_decompositions() {
        let q = graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
        let ds = enumerate_ghds(&q, 3);
        // single-bag must be present
        assert!(ds.iter().any(|d| d.bags.len() == 1));
        // the 3-singleton-bag split is cyclic → excluded
        assert!(ds.iter().all(|d| d.bags.len() != 3));
        // two-bag splits like {01,12},{02}: bag node sets {0,1,2},{0,2}
        // are acyclic → included
        assert!(ds.iter().any(|d| d.bags.len() == 2));
    }

    #[test]
    fn path_allows_full_split() {
        let q = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        let ds = enumerate_ghds(&q, 3);
        // per-edge bags form a join tree for a path
        assert!(ds.iter().any(|d| d.bags.len() == 3));
    }

    #[test]
    fn disconnected_bags_rejected() {
        let q = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        let ds = enumerate_ghds(&q, 2);
        for d in &ds {
            for bag in &d.bags {
                // reconstruct connectivity
                let (bq, _) = d.bag_query(&q, 0);
                assert!(bq.is_connected());
                let _ = bag;
            }
        }
        // specifically {e0,e2} in one bag is disconnected → no decomposition
        // may contain exactly that bag
        for d in &ds {
            for bag in &d.bags {
                assert_ne!(bag.edges, vec![0, 2]);
            }
        }
    }

    #[test]
    fn bag_query_preserves_labels() {
        let q = graph_from_edges(&[5, 6, 7], &[(0, 1), (1, 2)]);
        let ds = enumerate_ghds(&q, 2);
        let two = ds.iter().find(|d| d.bags.len() == 2).unwrap();
        let (bq, orig) = two.bag_query(&q, 0);
        for v in bq.nodes() {
            assert_eq!(bq.label(v), q.label(orig[v as usize]));
        }
    }
}
