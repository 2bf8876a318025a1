//! Correlated Sampling (Vengerov et al., VLDB'15), adapted to self-joins
//! over the edge relation: every data node is included in the sample with
//! probability `p` by a *shared* hash (the correlation — all query-edge
//! "relations" sample the same vertices), the query is counted exactly on
//! the sampled subgraph, and the count is scaled by `p^{-|V_q|}`.

use crate::{CardinalityEstimator, Estimate};
use alss_graph::{Graph, GraphBuilder, NodeId, WILDCARD};
use alss_matching::{count_homomorphisms, Budget};
use rand::rngs::SmallRng;

/// The CS estimator.
pub struct CorrelatedSampling<'g> {
    sampled: Graph,
    p: f64,
    budget_per_query: u64,
    _marker: std::marker::PhantomData<&'g Graph>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl<'g> CorrelatedSampling<'g> {
    /// Sample with node-inclusion probability `p` using hash seed `seed`.
    /// The sampled subgraph is materialized once and reused for all queries.
    pub fn new(data: &'g Graph, p: f64, seed: u64, budget_per_query: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "p ∈ [0, 1] is asserted above, so the product lies in [0, 2^64)"
        )]
        let threshold = (p * u64::MAX as f64) as u64;
        let keep: Vec<bool> = data
            .nodes()
            .map(|v| splitmix64(v as u64 ^ seed) <= threshold)
            .collect();
        // remap kept nodes densely
        let mut remap = vec![u32::MAX; data.num_nodes()];
        let mut kept_nodes: Vec<NodeId> = Vec::new();
        for v in data.nodes() {
            if keep[v as usize] {
                remap[v as usize] = alss_graph::node_id(kept_nodes.len());
                kept_nodes.push(v);
            }
        }
        let mut b = GraphBuilder::new(kept_nodes.len());
        for (i, &v) in kept_nodes.iter().enumerate() {
            b.set_label(alss_graph::node_id(i), data.label(v));
            for l in data.extra_labels(v) {
                b.add_extra_label(alss_graph::node_id(i), *l);
            }
        }
        for e in data.edges() {
            if keep[e.u as usize] && keep[e.v as usize] {
                if e.label == WILDCARD {
                    b.add_edge(remap[e.u as usize], remap[e.v as usize]);
                } else {
                    b.add_labeled_edge(remap[e.u as usize], remap[e.v as usize], e.label);
                }
            }
        }
        CorrelatedSampling {
            sampled: b.build(),
            p,
            budget_per_query,
            _marker: std::marker::PhantomData,
        }
    }

    /// Size of the materialized sample (diagnostics).
    pub fn sample_size(&self) -> (usize, usize) {
        (self.sampled.num_nodes(), self.sampled.num_edges())
    }
}

impl CardinalityEstimator for CorrelatedSampling<'_> {
    fn name(&self) -> &'static str {
        "CS"
    }

    fn estimate(&self, query: &Graph, _rng: &mut SmallRng) -> Estimate {
        let _span = alss_telemetry::Span::enter("estimator.cs");
        let budget = Budget::new(self.budget_per_query);
        let c = match count_homomorphisms(&self.sampled, query, &budget) {
            Ok(c) => c,
            Err(_) => return Estimate::failure(), // ran out of budget
        };
        if c == 0 {
            return Estimate::failure();
        }
        let exp = i32::try_from(query.num_nodes()).unwrap_or(i32::MAX);
        let scale = self.p.powi(-exp);
        Estimate::ok(c as f64 * scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alss_graph::builder::graph_from_edges;
    use rand::SeedableRng;

    fn big_random_graph(n: usize, m: usize, seed: u64) -> Graph {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u32 {
            b.set_label(v, rng.gen_range(0..3));
        }
        for _ in 0..m {
            b.add_edge(rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        }
        b.build()
    }

    #[test]
    fn sample_shrinks_with_p() {
        let d = big_random_graph(2000, 6000, 0);
        let small = CorrelatedSampling::new(&d, 0.1, 7, 1_000_000);
        let large = CorrelatedSampling::new(&d, 0.5, 7, 1_000_000);
        assert!(small.sample_size().0 < large.sample_size().0);
        // expected fraction roughly p
        let f = small.sample_size().0 as f64 / 2000.0;
        assert!((0.05..0.2).contains(&f), "fraction {f}");
    }

    #[test]
    fn estimate_order_of_magnitude_on_edge_query() {
        let d = big_random_graph(2000, 6000, 1);
        let cs = CorrelatedSampling::new(&d, 0.5, 3, 100_000_000);
        let q = graph_from_edges(&[WILDCARD, WILDCARD], &[(0, 1)]);
        let truth = alss_matching::count_homomorphisms(&d, &q, &Budget::unlimited()).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let e = cs.estimate(&q, &mut rng);
        assert!(!e.failed);
        let ratio = e.count / truth as f64;
        assert!((0.5..2.0).contains(&ratio), "{} vs {truth}", e.count);
    }

    #[test]
    fn failure_when_pattern_misses_sample() {
        // tiny graph, tiny p: the one matching edge is likely dropped
        let d = graph_from_edges(&[0, 1], &[(0, 1)]);
        let cs = CorrelatedSampling::new(&d, 1e-9, 5, 1_000);
        let q = graph_from_edges(&[0, 1], &[(0, 1)]);
        let mut rng = SmallRng::seed_from_u64(3);
        let e = cs.estimate(&q, &mut rng);
        assert!(e.failed);
    }

    #[test]
    fn full_sample_is_exact() {
        let d = big_random_graph(100, 300, 4);
        let cs = CorrelatedSampling::new(&d, 1.0, 9, 100_000_000);
        let q = graph_from_edges(&[0, 1], &[(0, 1)]);
        let truth = alss_matching::count_homomorphisms(&d, &q, &Budget::unlimited()).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let e = cs.estimate(&q, &mut rng);
        if truth == 0 {
            assert!(e.failed);
        } else {
            assert!((e.count - truth as f64).abs() < 1e-6);
        }
    }
}
