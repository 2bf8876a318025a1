//! Exact subgraph-isomorphism counting (§2): injective homomorphisms.

use crate::budget::{Budget, BudgetExceeded};
use crate::engine;
use alss_graph::Graph;

/// Count subgraph isomorphisms of `query` into `data` (injective
/// label/edge-preserving functions). Like the paper — and GraphQL, which it
/// uses for ground truth — we count *embeddings* (functions), not
/// automorphism-deduplicated images.
pub fn count_isomorphisms(
    data: &Graph,
    query: &Graph,
    budget: &Budget,
) -> Result<u64, BudgetExceeded> {
    engine::count(data, query, budget, true, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_homomorphisms;
    use alss_graph::builder::graph_from_edges;
    use alss_graph::{Graph, GraphBuilder, WILDCARD};

    fn unlimited() -> Budget {
        Budget::unlimited()
    }

    fn triangle() -> Graph {
        graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)])
    }

    /// Complete graph K4, unlabeled-ish (all label 0).
    fn k4() -> Graph {
        graph_from_edges(
            &[0, 0, 0, 0],
            &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        )
    }

    #[test]
    fn triangle_embeddings_in_k4() {
        // #injective maps of K3 into K4 = 4 * 3 * 2 = 24
        let q = triangle();
        assert_eq!(count_isomorphisms(&k4(), &q, &unlimited()).unwrap(), 24);
    }

    #[test]
    fn path_embeddings_exclude_folded_maps() {
        let d = triangle();
        let q = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
        // hom = 12 but injective only 6 (paths of length 2 in K3)
        assert_eq!(count_isomorphisms(&d, &q, &unlimited()).unwrap(), 6);
        assert_eq!(count_homomorphisms(&d, &q, &unlimited()).unwrap(), 12);
    }

    #[test]
    fn iso_count_never_exceeds_hom_count() {
        let d = k4();
        for (labels, edges) in [
            (vec![0, 0], vec![(0u32, 1u32)]),
            (vec![0, 0, 0], vec![(0, 1), (1, 2)]),
            (vec![0, 0, 0, 0], vec![(0, 1), (1, 2), (2, 3), (0, 3)]),
        ] {
            let q = graph_from_edges(&labels, &edges);
            let iso = count_isomorphisms(&d, &q, &unlimited()).unwrap();
            let hom = count_homomorphisms(&d, &q, &unlimited()).unwrap();
            assert!(iso <= hom, "iso {iso} > hom {hom}");
        }
    }

    #[test]
    fn square_not_embeddable_in_triangle() {
        let d = triangle();
        let q = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        assert_eq!(count_isomorphisms(&d, &q, &unlimited()).unwrap(), 0);
    }

    #[test]
    fn labeled_star_counts() {
        // data star: center 0 (label 9) with 3 leaves labeled 1,1,2
        let d = graph_from_edges(&[9, 1, 1, 2], &[(0, 1), (0, 2), (0, 3)]);
        // query star: center label 9, two leaves labeled 1 and wildcard
        let q = graph_from_edges(&[9, 1, WILDCARD], &[(0, 1), (0, 2)]);
        // center fixed, leaf1 ∈ {1,2}, leaf2 ∈ remaining {1,2,3}\{leaf1} → 2*2
        assert_eq!(count_isomorphisms(&d, &q, &unlimited()).unwrap(), 4);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let q = triangle();
        let b = Budget::new(1);
        assert_eq!(count_isomorphisms(&k4(), &q, &b), Err(BudgetExceeded));
    }

    #[test]
    fn automorphisms_counted_as_distinct_embeddings() {
        // K3 into K3: 3! embeddings
        let d = triangle();
        let q = triangle();
        assert_eq!(count_isomorphisms(&d, &q, &unlimited()).unwrap(), 6);
    }

    #[test]
    fn edge_labels_respected_injectively() {
        let mut b = GraphBuilder::new(4);
        for v in 0..4 {
            b.set_label(v, 0);
        }
        b.add_labeled_edge(0, 1, 1)
            .add_labeled_edge(1, 2, 1)
            .add_labeled_edge(2, 3, 2);
        let d = b.build();
        let mut qb = GraphBuilder::new(3);
        for v in 0..3 {
            qb.set_label(v, 0);
        }
        qb.add_labeled_edge(0, 1, 1).add_labeled_edge(1, 2, 1);
        let q = qb.build();
        // injective paths using two label-1 edges: 0-1-2 and 2-1-0 → 2
        assert_eq!(count_isomorphisms(&d, &q, &unlimited()).unwrap(), 2);
    }
}
