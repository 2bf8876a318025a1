//! Property tests for the CSR well-formedness validator: any graph the
//! builder produces — duplicate edges, both edge orientations, labels,
//! wildcards — must validate, and the serde round trip must preserve both
//! the graph and its validity.

// Test code opts back out of the library panic/numeric policy: a panic IS
// the failure report here, and fixtures are tiny.
#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]

use alss_graph::{Graph, GraphBuilder, WILDCARD};
use proptest::prelude::*;

fn build_random(n: usize, edges: &[(usize, usize)], labeled_edges: bool) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        let l = (v % 5) as u32;
        b.set_label(v as u32, if l == 4 { WILDCARD } else { l });
    }
    for (i, &(u, v)) in edges.iter().enumerate() {
        let (u, v) = (u % n, v % n);
        if u == v {
            continue;
        }
        if labeled_edges {
            b.add_labeled_edge(u as u32, v as u32, (i % 3) as u32);
        } else {
            b.add_edge(u as u32, v as u32);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn built_graphs_always_validate(
        n in 1usize..40,
        edges in proptest::collection::vec((0usize..64, 0usize..64), 0..120),
        labeled in proptest::bool::ANY,
    ) {
        let g = build_random(n, &edges, labeled);
        prop_assert_eq!(g.validate(), Ok(()));
        // Spot-check the invariants the validator promises.
        for v in g.nodes() {
            let adj = g.neighbors(v);
            prop_assert!(adj.windows(2).all(|w| w[0] < w[1]));
            for &u in adj {
                prop_assert!((u as usize) < g.num_nodes());
                prop_assert!(g.neighbors(u).binary_search(&v).is_ok());
            }
        }
    }

    #[test]
    fn serde_round_trip_preserves_validity(
        n in 1usize..20,
        edges in proptest::collection::vec((0usize..32, 0usize..32), 0..40),
    ) {
        let g = build_random(n, &edges, false);
        let json = serde_json::to_string(&g).expect("serialize");
        let back: Graph = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back.validate(), Ok(()));
        prop_assert_eq!(&back, &g);

        // Older files also carry the unique edge list and its labels,
        // which the CSR now derives; they still load, to the same graph.
        let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.u, e.v)).collect();
        let old = format!(
            "{{\"edges\":{},\"edge_labels\":null,{}",
            serde_json::to_string(&edges).expect("serialize edges"),
            json.strip_prefix('{').expect("a JSON object"),
        );
        let back: Graph = serde_json::from_str(&old).expect("deserialize old");
        prop_assert_eq!(back, g);
    }
}
