//! Pins what each search charges: `Budget::remaining()` after every
//! existence check and every count, on queries that take each branch of
//! the backtracking search (anchored expansion, a new connected component,
//! an edge-label mismatch, no match at all, and an exhausted budget).

#![allow(clippy::unwrap_used)]

use alss_graph::builder::graph_from_edges;
use alss_graph::{Graph, GraphBuilder, WILDCARD};
use alss_matching::{
    count_homomorphisms, count_isomorphisms, homomorphism_exists, isomorphism_exists, Budget,
    BudgetExceeded,
};

/// 30 nodes with labels `i % 3`, a ring plus chords `i → 7i + 3`, and
/// edge label 1 on the chords.
fn data() -> Graph {
    let n = 30u32;
    let mut b = GraphBuilder::new(n as usize);
    for v in 0..n {
        b.set_label(v, v % 3);
    }
    for v in 0..n {
        b.add_edge(v, (v + 1) % n);
        let w = (7 * v + 3) % n;
        if w != v && !b.has_edge(v, w) {
            b.add_labeled_edge(v, w, 1);
        }
    }
    b.build()
}

fn queries() -> Vec<Graph> {
    let mut labeled_edge = GraphBuilder::new(2);
    labeled_edge.set_labels(&[0, 0]).add_labeled_edge(0, 1, 1);
    vec![
        // a labeled path
        graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]),
        // an unlabeled triangle
        graph_from_edges(&[WILDCARD; 3], &[(0, 1), (1, 2), (0, 2)]),
        // a wildcard 4-cycle
        graph_from_edges(&[WILDCARD; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]),
        // two components: the second node set is scanned in full
        graph_from_edges(&[0, 1, 2, 0], &[(0, 1), (2, 3)]),
        // an edge-labeled edge
        labeled_edge.build(),
        // no match: label 5 does not occur
        graph_from_edges(&[0, 5], &[(0, 1)]),
        // a wildcard 5-star
        graph_from_edges(&[WILDCARD; 5], &[(0, 1), (0, 2), (0, 3), (0, 4)]),
    ]
}

const FAIL: Result<u64, BudgetExceeded> = Err(BudgetExceeded);

type Search = fn(&Graph, &Graph, &Budget) -> Result<u64, BudgetExceeded>;

/// The four searches, existence results read as 0/1.
const SEARCHES: [Search; 4] = [
    |d, q, b| homomorphism_exists(d, q, b).map(u64::from),
    |d, q, b| isomorphism_exists(d, q, b).map(u64::from),
    count_homomorphisms,
    count_isomorphisms,
];

/// `(result, remaining)` of every search on every query, query-major.
fn charges(start: u64) -> Vec<(Result<u64, BudgetExceeded>, u64)> {
    let data = data();
    let mut out = Vec::new();
    for q in queries() {
        for search in SEARCHES {
            let budget = Budget::new(start);
            let res = search(&data, &q, &budget);
            out.push((res, budget.remaining()));
        }
    }
    out
}

#[test]
fn every_search_charges_what_it_did() {
    let got = charges(1_000_000);
    // One row per query: hom/iso existence, then hom/iso count.
    let expected = [
        [
            (Ok(1), 999980),
            (Ok(1), 999980),
            (Ok(10), 999894),
            (Ok(10), 999894),
        ],
        [
            (Ok(0), 999286),
            (Ok(0), 999286),
            (Ok(0), 999286),
            (Ok(0), 999286),
        ],
        [
            (Ok(1), 999955),
            (Ok(1), 999956),
            (Ok(954), 997198),
            (Ok(192), 997750),
        ],
        [
            (Ok(1), 999950),
            (Ok(1), 999950),
            (Ok(100), 999152),
            (Ok(90), 999152),
        ],
        [
            (Ok(1), 999985),
            (Ok(1), 999985),
            (Ok(18), 999942),
            (Ok(18), 999942),
        ],
        [
            (Ok(0), 1000000),
            (Ok(0), 1000000),
            (Ok(0), 1000000),
            (Ok(0), 1000000),
        ],
        [
            (Ok(1), 999950),
            (Ok(1), 999956),
            (Ok(6630), 988810),
            (Ok(576), 995056),
        ],
    ];
    assert_eq!(got, expected.concat(), "{got:?}");
}

#[test]
fn an_exhausted_budget_fails_the_count_but_not_the_existence_check() {
    let got = charges(150);
    let expected = [
        [(Ok(1), 130), (Ok(1), 130), (Ok(10), 44), (Ok(10), 44)],
        [(FAIL, 0), (FAIL, 0), (FAIL, 0), (FAIL, 0)],
        [(Ok(1), 105), (Ok(1), 106), (FAIL, 0), (FAIL, 0)],
        [(Ok(1), 100), (Ok(1), 100), (FAIL, 0), (FAIL, 0)],
        [(Ok(1), 135), (Ok(1), 135), (Ok(18), 92), (Ok(18), 92)],
        [(Ok(0), 150), (Ok(0), 150), (Ok(0), 150), (Ok(0), 150)],
        [(Ok(1), 100), (Ok(1), 106), (FAIL, 0), (FAIL, 0)],
    ];
    assert_eq!(got, expected.concat(), "{got:?}");
}
