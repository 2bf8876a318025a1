//! Property-based tests (proptest) over the core data structures and
//! algorithmic invariants, spanning crates.

// Test code opts back out of the library panic policy: a panic IS the
// failure report here, and index-sized casts are bounded by tiny fixtures.
#![allow(
    clippy::unwrap_used,
    clippy::cast_possible_truncation,
    clippy::float_cmp
)]

use alss::core::q_error;
use alss::graph::builder::graph_from_edges;
use alss::graph::decompose::is_complete;
use alss::graph::io::{from_text, to_text};
use alss::graph::{decompose, Graph, GraphBuilder, WILDCARD};
use alss::matching::{count_homomorphisms, count_isomorphisms, Budget};
use proptest::prelude::*;

/// Strategy: a random connected labeled graph with 2..=7 nodes.
fn connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..=7).prop_flat_map(|n| {
        let max_extra = n * (n - 1) / 2;
        (
            proptest::collection::vec(0u32..4, n),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 0..=max_extra),
            proptest::collection::vec(1u32..n.max(2) as u32, n - 1),
        )
            .prop_map(move |(labels, extra, spine)| {
                let mut b = GraphBuilder::new(n);
                b.set_labels(&labels);
                // spanning spine guarantees connectivity: node i attaches to
                // some earlier node
                for (i, r) in spine.iter().enumerate() {
                    let child = (i + 1) as u32;
                    let parent = r % child;
                    b.add_edge(parent, child);
                }
                for (u, v) in extra {
                    if u != v {
                        b.add_edge(u, v);
                    }
                }
                b.build()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_graphs_are_connected(g in connected_graph()) {
        prop_assert!(g.is_connected());
        prop_assert!(g.num_edges() >= g.num_nodes() - 1);
    }

    #[test]
    fn text_roundtrip_preserves_graph(g in connected_graph()) {
        let back = from_text(&to_text(&g)).expect("parse back");
        prop_assert_eq!(g, back);
    }

    #[test]
    fn decomposition_is_always_complete(g in connected_graph(), l in 1u32..4) {
        let subs = decompose(&g, l);
        prop_assert_eq!(subs.len(), g.num_nodes());
        prop_assert!(is_complete(&g, &subs));
        // every substructure is a tree containing its root
        for s in &subs {
            prop_assert_eq!(s.graph.num_edges(), s.graph.num_nodes() - 1);
            prop_assert!(s.graph.is_connected());
        }
    }

    #[test]
    fn iso_count_never_exceeds_hom_count(q in connected_graph()) {
        // fixed small data graph
        let d = graph_from_edges(
            &[0, 1, 2, 3, 0, 1],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4), (2, 5)],
        );
        let b = Budget::unlimited();
        let hom = count_homomorphisms(&d, &q, &b).unwrap();
        let iso = count_isomorphisms(&d, &q, &b).unwrap();
        prop_assert!(iso <= hom, "iso {} > hom {}", iso, hom);
    }

    #[test]
    fn query_node_relabeling_to_wildcard_never_decreases_count(q in connected_graph()) {
        let d = graph_from_edges(
            &[0, 1, 2, 3, 0, 1],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
        );
        let b = Budget::unlimited();
        let base = count_homomorphisms(&d, &q, &b).unwrap();
        // wildcard all labels: strictly weaker constraints
        let mut wb = GraphBuilder::new(q.num_nodes());
        for v in q.nodes() {
            wb.set_label(v, WILDCARD);
        }
        for e in q.edges() {
            wb.add_edge(e.u, e.v);
        }
        let relaxed = count_homomorphisms(&d, &wb.build(), &b).unwrap();
        prop_assert!(relaxed >= base, "relaxed {} < base {}", relaxed, base);
    }

    #[test]
    fn q_error_is_symmetric_and_at_least_one(c in 1.0f64..1e12, e in 1.0f64..1e12) {
        let q1 = q_error(c, e);
        let q2 = q_error(e, c);
        prop_assert!((q1 - q2).abs() < 1e-9 * q1.max(1.0));
        prop_assert!(q1 >= 1.0);
    }

    #[test]
    fn adding_a_query_edge_never_increases_count(q in connected_graph()) {
        let d = graph_from_edges(
            &[0, 1, 2, 0, 1, 2],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4)],
        );
        let b = Budget::unlimited();
        let base = count_homomorphisms(&d, &q, &b).unwrap();
        // add one edge between two non-adjacent query nodes, if any
        let n = q.num_nodes() as u32;
        let mut extended = None;
        'outer: for u in 0..n {
            for v in (u + 1)..n {
                if !q.has_edge(u, v) {
                    let mut eb = GraphBuilder::new(q.num_nodes());
                    for w in q.nodes() {
                        eb.set_label(w, q.label(w));
                    }
                    for e in q.edges() {
                        eb.add_edge(e.u, e.v);
                    }
                    eb.add_edge(u, v);
                    extended = Some(eb.build());
                    break 'outer;
                }
            }
        }
        if let Some(ext) = extended {
            let c = count_homomorphisms(&d, &ext, &b).unwrap();
            prop_assert!(c <= base, "more constraints gave more matches: {} > {}", c, base);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The LSS forward pass is permutation-invariant in the *substructure
    /// set* `S(q)` (the paper's §4.2 claim — attention + flatten do not
    /// depend on the order substructures are listed in). Note the claim is
    /// not about query-node renumbering: BFS tie-breaking may pick
    /// different tree edges under a different numbering, legitimately
    /// changing the decomposed substructures themselves.
    #[test]
    fn lss_prediction_invariant_to_substructure_order(
        g in connected_graph(),
        seed in 0u64..100,
        shuffle_seed in 0u64..100,
    ) {
        use alss::core::{Encoder, LssConfig, LssModel};
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let data = graph_from_edges(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let enc = Encoder::frequency(&data, 3);
        let mut rng = SmallRng::seed_from_u64(seed);
        let model = LssModel::new(LssConfig::tiny(), enc.node_dim(), enc.edge_dim(), &mut rng);

        let mut subs = decompose(&g, enc.hops());
        let encoded = enc.encode_substructures(&subs);
        subs.shuffle(&mut SmallRng::seed_from_u64(shuffle_seed));
        let shuffled = enc.encode_substructures(&subs);

        let p1 = model.predict(&encoded).log10_count;
        let p2 = model.predict(&shuffled).log10_count;
        prop_assert!((p1 - p2).abs() < 1e-3, "{} vs {}", p1, p2);
    }
}
