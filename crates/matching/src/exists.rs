//! Early-terminating existence checks: "does at least one matching
//! exist?" — the decision variant of subgraph matching. Useful for
//! filtering workloads (a query extracted from the data graph always has
//! a witness, but relabeled §6.6 patterns may not).

use crate::budget::{Budget, BudgetExceeded};
use crate::engine;
use alss_graph::Graph;

/// Does `data` contain at least one homomorphic image of `query`?
pub fn homomorphism_exists(
    data: &Graph,
    query: &Graph,
    budget: &Budget,
) -> Result<bool, BudgetExceeded> {
    engine::count(data, query, budget, false, true).map(|n| n > 0)
}

/// Does `data` contain at least one (injective) embedding of `query`?
pub fn isomorphism_exists(
    data: &Graph,
    query: &Graph,
    budget: &Budget,
) -> Result<bool, BudgetExceeded> {
    engine::count(data, query, budget, true, true).map(|n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alss_graph::builder::graph_from_edges;

    #[test]
    fn existence_matches_counting() {
        let d = graph_from_edges(&[0, 0, 0, 1], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let tri = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let tri_labeled = graph_from_edges(&[1, 1, 1], &[(0, 1), (1, 2), (0, 2)]);
        let b = Budget::unlimited();
        assert!(homomorphism_exists(&d, &tri, &b).unwrap());
        assert!(isomorphism_exists(&d, &tri, &b).unwrap());
        assert!(!homomorphism_exists(&d, &tri_labeled, &b).unwrap());
        assert!(!isomorphism_exists(&d, &tri_labeled, &b).unwrap());
    }

    #[test]
    fn existence_short_circuits_under_tiny_budget() {
        // counting the matchings of an edge in a large clique is expensive;
        // existence needs only one witness
        let n = 60u32;
        let mut bld = alss_graph::GraphBuilder::new(n as usize);
        for v in 0..n {
            bld.set_label(v, 0);
        }
        for u in 0..n {
            for v in (u + 1)..n {
                bld.add_edge(u, v);
            }
        }
        let d = bld.build();
        let q = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let budget = Budget::new(200);
        assert_eq!(homomorphism_exists(&d, &q, &budget), Ok(true));
        // the counting variant blows the same budget
        assert!(crate::count_homomorphisms(&d, &q, &Budget::new(200)).is_err());
    }

    #[test]
    fn hom_exists_but_iso_does_not() {
        // single edge data; 3-path query folds homomorphically only
        let d = graph_from_edges(&[0, 0], &[(0, 1)]);
        let q = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let b = Budget::unlimited();
        assert!(homomorphism_exists(&d, &q, &b).unwrap());
        assert!(!isomorphism_exists(&d, &q, &b).unwrap());
    }

    #[test]
    fn empty_query_trivially_exists() {
        let d = graph_from_edges(&[0], &[]);
        let q = alss_graph::GraphBuilder::new(0).build();
        assert!(homomorphism_exists(&d, &q, &Budget::unlimited()).unwrap());
    }
}
