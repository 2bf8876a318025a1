//! Exact homomorphism counting (§2): the number of label-preserving,
//! edge-preserving functions `f : V_q → V` (not necessarily injective).

use crate::budget::{Budget, BudgetExceeded};
use crate::engine;
use alss_graph::Graph;

/// Count homomorphisms of `query` into `data`.
///
/// The count equals the number of answer tuples of the self-join SQL
/// formulation the paper discusses in §1: one edge-relation factor per
/// query edge, one label predicate per labeled query node.
pub fn count_homomorphisms(
    data: &Graph,
    query: &Graph,
    budget: &Budget,
) -> Result<u64, BudgetExceeded> {
    engine::count(data, query, budget, false, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alss_graph::builder::graph_from_edges;
    use alss_graph::{Graph, GraphBuilder, WILDCARD};

    fn unlimited() -> Budget {
        Budget::unlimited()
    }

    /// Unlabeled triangle data graph.
    fn triangle() -> Graph {
        graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn single_node_query_counts_label_occurrences() {
        let d = graph_from_edges(&[0, 0, 1], &[(0, 1), (1, 2)]);
        let q0 = graph_from_edges(&[0], &[]);
        let q_any = graph_from_edges(&[WILDCARD], &[]);
        assert_eq!(count_homomorphisms(&d, &q0, &unlimited()).unwrap(), 2);
        assert_eq!(count_homomorphisms(&d, &q_any, &unlimited()).unwrap(), 3);
    }

    #[test]
    fn single_edge_query_counts_directed_edge_pairs() {
        // homomorphisms of one edge = 2|E| with matching labels
        let d = triangle();
        let q = graph_from_edges(&[0, 0], &[(0, 1)]);
        assert_eq!(count_homomorphisms(&d, &q, &unlimited()).unwrap(), 6);
    }

    #[test]
    fn triangle_in_triangle() {
        // hom(K3, K3) = 3! = 6 (all permutations; no non-injective ones)
        let d = triangle();
        let q = triangle();
        assert_eq!(count_homomorphisms(&d, &q, &unlimited()).unwrap(), 6);
    }

    #[test]
    fn path2_in_triangle_allows_folding() {
        // hom(P3, K3): center 3 choices × 2 × 2 = 12 (endpoints may coincide)
        let d = triangle();
        let q = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
        assert_eq!(count_homomorphisms(&d, &q, &unlimited()).unwrap(), 12);
    }

    #[test]
    fn labels_restrict_matchings() {
        let d = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (2, 3), (1, 2)]);
        let q = graph_from_edges(&[0, 1], &[(0, 1)]);
        // ordered pairs (label0, label1) adjacent: (0,1), (2,3), (2,1) → 3
        assert_eq!(count_homomorphisms(&d, &q, &unlimited()).unwrap(), 3);
    }

    #[test]
    fn no_match_gives_zero() {
        let d = triangle();
        let q = graph_from_edges(&[5, 5], &[(0, 1)]);
        assert_eq!(count_homomorphisms(&d, &q, &unlimited()).unwrap(), 0);
    }

    #[test]
    fn square_query_in_triangle_homomorphism_exists() {
        // C4 → K3 has homomorphisms (fold opposite corners)
        let d = triangle();
        let q = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let c = count_homomorphisms(&d, &q, &unlimited()).unwrap();
        assert!(c > 0);
        // closed walks of length 4 in K3 = trace(A^4) = 18
        assert_eq!(c, 18);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let d = triangle();
        let q = triangle();
        let b = Budget::new(2);
        assert_eq!(count_homomorphisms(&d, &q, &b), Err(BudgetExceeded));
    }

    #[test]
    fn edge_labels_enforced() {
        let mut b = GraphBuilder::new(3);
        b.set_label(0, 0).set_label(1, 0).set_label(2, 0);
        b.add_labeled_edge(0, 1, 1).add_labeled_edge(1, 2, 2);
        let d = b.build();

        let mut qb = GraphBuilder::new(2);
        qb.set_label(0, 0).set_label(1, 0);
        qb.add_labeled_edge(0, 1, 1);
        let q = qb.build();
        // only the label-1 edge matches, both directions
        assert_eq!(count_homomorphisms(&d, &q, &unlimited()).unwrap(), 2);

        let mut qb2 = GraphBuilder::new(2);
        qb2.set_label(0, 0).set_label(1, 0);
        qb2.add_edge(0, 1); // wildcard edge label matches both
        let q2 = qb2.build();
        assert_eq!(count_homomorphisms(&d, &q2, &unlimited()).unwrap(), 4);
    }

    #[test]
    fn empty_query_counts_one_empty_mapping() {
        let d = triangle();
        let q = GraphBuilder::new(0).build();
        assert_eq!(count_homomorphisms(&d, &q, &unlimited()).unwrap(), 1);
    }

    #[test]
    fn disconnected_query_multiplies_components() {
        let d = triangle();
        // two disjoint single edges: hom = 6 * 6 = 36
        let q = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        assert_eq!(count_homomorphisms(&d, &q, &unlimited()).unwrap(), 36);
    }
}
