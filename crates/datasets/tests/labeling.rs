//! `generate_workload` labels its candidates in parallel; this checks that
//! the result is exactly the workload a plain serial loop produces: the
//! same extraction, then `Semantics::count` per candidate in order. CI runs
//! it with `ALSS_THREADS=1` and `ALSS_THREADS=4`.

#![allow(clippy::unwrap_used)]

use alss_datasets::by_name;
use alss_datasets::queries::{generate_workload, WorkloadSpec};
use alss_graph::extract::{extract_query, ExtractOptions};
use alss_graph::io::to_text;
use alss_graph::Graph;
use alss_matching::{Budget, Semantics};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The serial reference: `(text, count)` per kept query, plus how many
/// candidates ran out of budget.
fn serial_workload(data: &Graph, spec: &WorkloadSpec) -> (Vec<(String, u64)>, usize) {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let opts = ExtractOptions {
        induced: spec.induced,
        extra_edge_prob: 0.4,
        wildcard_prob: spec.wildcard_prob,
        drop_edge_labels: false,
    };
    let mut out = Vec::new();
    let mut exceeded = 0;
    for &size in &spec.sizes {
        let mut cands: Vec<Graph> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..spec.per_size * 10 {
            if cands.len() >= spec.per_size * 3 {
                break;
            }
            if let Some(q) = extract_query(data, size, &opts, &mut rng) {
                if seen.insert(to_text(&q)) {
                    cands.push(q);
                }
            }
        }
        let mut kept = 0;
        for q in &cands {
            match spec
                .semantics
                .count(data, q, &Budget::new(spec.budget_per_query))
            {
                Ok(c) if c >= 1 => {
                    if kept < spec.per_size {
                        out.push((to_text(q), c));
                        kept += 1;
                    }
                }
                Ok(_) => {}
                Err(_) => exceeded += 1,
            }
        }
    }
    (out, exceeded)
}

#[test]
fn parallel_labeling_matches_a_serial_loop() {
    let data = by_name("yeast", 0.05, 0).unwrap();
    for semantics in [Semantics::Homomorphism, Semantics::Isomorphism] {
        let spec = WorkloadSpec {
            sizes: vec![3, 5, 8],
            per_size: 6,
            semantics,
            budget_per_query: 3_000,
            seed: 11,
            ..Default::default()
        };
        let (expected, exceeded) = serial_workload(&data, &spec);
        assert!(
            exceeded > 0,
            "{semantics}: no candidate exceeded the budget"
        );
        assert!(!expected.is_empty(), "{semantics}: nothing labeled");
        let got: Vec<(String, u64)> = generate_workload(&data, &spec)
            .queries
            .iter()
            .map(|q| (to_text(&q.graph), q.count))
            .collect();
        assert_eq!(got, expected, "{semantics}");
    }
}
