//! Property tests for the graph substrate: the builder's CSR invariants,
//! builder determinism, BFS trees, decomposition, extraction, and text IO.

// Test code opts back out of the library panic/numeric policy: a panic IS
// the failure report here, and fixtures are tiny.
#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]

use alss_graph::extract::{extract_query, ExtractOptions};
use alss_graph::io::{from_text, to_text};
use alss_graph::labels::LabelStats;
use alss_graph::{bfs_tree, decompose, Graph, GraphBuilder, WILDCARD};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Strategy: a random node-labeled graph with 1..=10 nodes, often
/// disconnected.
fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    graph_with_edge_labels(false)
}

/// [`arbitrary_graph`], with edge labels `0..3` or unlabeled edges when
/// `edge_labels`.
fn graph_with_edge_labels(edge_labels: bool) -> impl Strategy<Value = Graph> {
    (1usize..=10).prop_flat_map(move |n| {
        (
            proptest::collection::vec(0u32..5, n),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 0u32..4), 0..=2 * n),
        )
            .prop_map(move |(labels, edges)| {
                let mut b = GraphBuilder::new(n);
                b.set_labels(&labels);
                for (u, v, l) in edges {
                    match (u != v, edge_labels && l < 3) {
                        (false, _) => {}
                        (true, true) => {
                            b.add_labeled_edge(u, v, l);
                        }
                        (true, false) => {
                            b.add_edge(u, v);
                        }
                    }
                }
                b.build()
            })
    })
}

/// Strategy: a graph using every part of the text format: wildcard and
/// near-`u32::MAX` node labels, extra labels (on wildcard nodes too, and
/// on nodes whose primary label is set after them), edges with and
/// without labels, duplicate edges and self loops.
fn rich_graph() -> impl Strategy<Value = Graph> {
    let label = |x: u32| match x {
        5 => WILDCARD,
        6 => WILDCARD - 1,
        x => x,
    };
    (1usize..=10).prop_flat_map(move |n| {
        (
            proptest::collection::vec((0u32..7, 0u32..8, 0u32..8, any::<bool>()), n),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 0u32..7), 0..=2 * n),
        )
            .prop_map(move |(nodes, edges)| {
                let mut b = GraphBuilder::new(n);
                for (v, (l, x, y, relabel)) in (0u32..).zip(nodes) {
                    b.set_label(v, label(l));
                    for extra in [x, y].into_iter().filter(|&e| e < 5) {
                        b.add_extra_label(v, extra);
                    }
                    if relabel {
                        b.set_label(v, label(x));
                    }
                }
                for (u, v, l) in edges {
                    b.add_labeled_edge(u, v, label(l));
                }
                b.build()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_io_roundtrip_with_every_kind_of_label(g in rich_graph()) {
        prop_assert_eq!(from_text(&to_text(&g)).unwrap(), g);
    }

    /// The CSR invariants every builder graph keeps: in-bounds, strictly
    /// sorted, symmetric adjacency without self loops, edge labels aligned
    /// with it, and extra labels sorted and without the primary label.
    #[test]
    fn builder_graphs_keep_the_csr_invariants(g in rich_graph()) {
        let n = g.num_nodes();
        for v in g.nodes() {
            let nb = g.neighbors(v);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "unsorted adjacency");
            for &u in nb {
                prop_assert!((u as usize) < n, "out-of-bounds neighbor");
                prop_assert!(u != v, "self loop");
                prop_assert!(g.neighbors(u).binary_search(&v).is_ok(), "asymmetric edge");
                prop_assert_eq!(g.edge_label(u, v), g.edge_label(v, u));
            }
            if let Some(labels) = g.neighbor_edge_labels(v) {
                prop_assert_eq!(labels.len(), nb.len());
            }
            let extra = g.extra_labels(v);
            prop_assert!(extra.windows(2).all(|w| w[0] < w[1]), "unsorted extra labels");
            prop_assert!(!extra.contains(&g.label(v)), "primary label among the extras");
        }
        // handshake lemma
        let total_degree: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(total_degree, 2 * g.num_edges());
    }

    #[test]
    fn builder_is_deterministic(g in arbitrary_graph()) {
        // rebuilding from the edge list yields the identical graph
        let mut b = GraphBuilder::new(g.num_nodes());
        for v in g.nodes() {
            b.set_label(v, g.label(v));
        }
        for e in g.edges() {
            b.add_edge(e.u, e.v);
        }
        prop_assert_eq!(b.build(), g.clone());
    }

    #[test]
    fn text_io_roundtrip(g in arbitrary_graph()) {
        prop_assert_eq!(from_text(&to_text(&g)).unwrap(), g);
    }

    #[test]
    fn bfs_tree_depths_are_shortest_distances(g in arbitrary_graph(), root_pick in 0usize..10) {
        let root = (root_pick % g.num_nodes()) as u32;
        let t = bfs_tree(&g, root, u32::MAX);
        // recompute distances by simple BFS
        let mut dist = vec![u32::MAX; g.num_nodes()];
        let mut queue = std::collections::VecDeque::new();
        dist[root as usize] = 0;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if dist[u as usize] == u32::MAX {
                    dist[u as usize] = dist[v as usize] + 1;
                    queue.push_back(u);
                }
            }
        }
        for (node, depth) in t.nodes.iter().zip(&t.depths) {
            prop_assert_eq!(dist[*node as usize], *depth);
        }
        // tree contains exactly the reachable nodes
        let reachable = dist.iter().filter(|&&d| d != u32::MAX).count();
        prop_assert_eq!(t.nodes.len(), reachable);
    }

    #[test]
    fn label_stats_frequencies_sum_to_node_count(g in arbitrary_graph()) {
        let s = LabelStats::new(&g);
        let total: u64 = (0..g.num_node_labels() as u32).map(|l| s.frequency(l)).sum();
        prop_assert_eq!(total, g.num_nodes() as u64);
        // selectivities in (0, 1]
        for l in 0..g.num_node_labels() as u32 {
            let sel = s.selectivity(l);
            prop_assert!((0.0..=1.0).contains(&sel));
        }
        prop_assert!(s.entropy() >= -1e-9);
        prop_assert!(s.entropy() <= (g.num_node_labels().max(1) as f64).ln() + 1e-9);
    }

    #[test]
    fn decomposition_node_sets_cover_bfs_balls(g in arbitrary_graph(), l in 1u32..4) {
        let d = decompose(&g, l);
        for i in 0..d.len() {
            // the substructure's nodes are within l hops of its root
            let nodes = d.query_nodes(i);
            let t = bfs_tree(&g, nodes[0], l);
            let ball: std::collections::HashSet<_> = t.nodes.iter().collect();
            for orig in nodes {
                prop_assert!(ball.contains(orig));
            }
        }
    }

    /// Oracle: each packed tree is exactly `bfs_tree` from its root. Same
    /// query nodes in the same order; each row's neighbors are its tree
    /// edges, parent first, then children ascending; each tree edge's
    /// label is the query's label of that edge.
    #[test]
    fn decomposition_matches_bfs_trees(
        g in (any::<bool>()).prop_flat_map(graph_with_edge_labels),
        l in 0u32..4,
    ) {
        let d = decompose(&g, l);
        prop_assert_eq!(d.len(), g.num_nodes());
        prop_assert_eq!(d.nodes.len(), d.graphs.num_nodes());
        for root in g.nodes() {
            let i = root as usize;
            let t = bfs_tree(&g, root, l);
            prop_assert_eq!(d.query_nodes(i), t.nodes.as_slice());
            let local = |v: u32| t.nodes.iter().position(|&x| x == v).unwrap();
            let mut expected: Vec<Vec<usize>> = vec![Vec::new(); t.len()];
            for &(p, c) in &t.edges {
                expected[local(c)].push(local(p));
            }
            for &(p, c) in &t.edges {
                expected[local(p)].push(local(c));
            }
            let base = d.graphs.rows(i).start;
            for (v, want) in expected.iter().enumerate() {
                let got: Vec<usize> =
                    d.graphs.neighbors(base + v).iter().map(|&u| u - base).collect();
                prop_assert_eq!(&got, want);
                for &u in want {
                    let (a, b) = (t.nodes[v], t.nodes[u]);
                    prop_assert_eq!(
                        Some(d.edge_label(base + v, base + u)),
                        g.edge_label(a, b)
                    );
                }
            }
        }
    }

    #[test]
    fn extraction_yields_connected_induced_subgraphs(
        g in arbitrary_graph(),
        size in 2usize..5,
        seed in 0u64..100,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let opts = ExtractOptions::default(); // induced
        if let Some(q) = extract_query(&g, size, &opts, &mut rng) {
            prop_assert_eq!(q.num_nodes(), size);
            prop_assert!(q.is_connected());
            // labels are a multiset-subset of the data graph's labels
            let mut data_labels: Vec<u32> = g.nodes().map(|v| g.label(v)).collect();
            for v in q.nodes() {
                let lab = q.label(v);
                let pos = data_labels.iter().position(|&d| d == lab);
                prop_assert!(pos.is_some(), "label {} not in data graph", lab);
                data_labels.swap_remove(pos.unwrap());
            }
        }
    }
}
