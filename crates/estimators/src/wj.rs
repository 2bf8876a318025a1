//! Wander Join (Li et al., SIGMOD'16), adapted to subgraph matching as in
//! G-CARE: random walks over the data graph sample (partial) matchings in
//! the query's walk order; the Horvitz–Thompson estimator multiplies the
//! branching factors observed along the walk. A walk *fails* when the next
//! query node has no compatible extension (or a cycle-closing edge is
//! absent); the paper's central finding is that on complex data/label
//! distributions *all* walks fail for larger queries, collapsing the
//! estimate to 0 ("sampling failure").

use crate::index::{walk_order, LabelIndex, WalkOrder};
use crate::{CardinalityEstimator, Estimate};
use alss_graph::{label_matches, Graph, NodeId, WILDCARD};
use rand::rngs::SmallRng;
use rand::Rng;

/// The WJ estimator. `injective = true` gives the isomorphism-revised
/// variant of §6.2 (walks that revisit a data node are rejected).
pub struct WanderJoin<'g> {
    index: &'g LabelIndex<'g>,
    samples: usize,
    injective: bool,
}

impl<'g> WanderJoin<'g> {
    /// Homomorphism-counting WJ with the given number of random walks.
    pub fn new(index: &'g LabelIndex<'g>, samples: usize) -> Self {
        WanderJoin {
            index,
            samples,
            injective: false,
        }
    }

    /// Isomorphism-revised WJ (the paper's §6.2 modification).
    pub fn new_isomorphism(index: &'g LabelIndex<'g>, samples: usize) -> Self {
        WanderJoin {
            index,
            samples,
            injective: true,
        }
    }

    /// One random walk; returns its HT estimate (0 for an invalid walk).
    fn walk(&self, q: &Graph, wo: &WalkOrder, rng: &mut SmallRng) -> f64 {
        let data = self.index.data();
        let n = q.num_nodes();
        let mut map: Vec<NodeId> = Vec::with_capacity(n);
        let mut weight = 1.0f64;

        for pos in 0..n {
            let qv = wo.order[pos];
            let bw = &wo.backward[pos];
            let Some(&anchor) = bw.first() else {
                // The first node of a connected component (position 0 of a
                // connected query) has no walked neighbor: its image is a
                // uniform sample of its label's candidates. Components
                // are sampled independently, so their weights multiply.
                let label = q.label(qv);
                let Some(dv) = self.index.sample_candidate(label, rng) else {
                    return 0.0;
                };
                if self.injective && map.contains(&dv) {
                    return 0.0;
                }
                weight *= self.index.candidate_count(label) as f64;
                map.push(dv);
                continue;
            };
            let au = map[anchor];
            let Some(ql) = q.edge_label(wo.order[anchor], qv) else {
                // An anchor is by construction an already-walked neighbor;
                // a missing edge means a malformed order — score the walk 0.
                debug_assert!(false, "anchor implies edge");
                return 0.0;
            };
            // compatible neighbors of the anchor image
            let nbrs = data.neighbors(au);
            let elabels = data.neighbor_edge_labels(au);
            let mut matches: Vec<NodeId> = Vec::new();
            for (i, &dv) in nbrs.iter().enumerate() {
                if !data.node_matches(dv, q.label(qv)) {
                    continue;
                }
                let dl = elabels.map(|l| l[i]).unwrap_or(WILDCARD);
                if !label_matches(ql, dl) {
                    continue;
                }
                if self.injective && map.contains(&dv) {
                    continue;
                }
                matches.push(dv);
            }
            if matches.is_empty() {
                return 0.0;
            }
            let dv = matches[rng.gen_range(0..matches.len())];
            weight *= matches.len() as f64;
            // verify remaining backward (cycle-closing) edges
            for &j in &bw[1..] {
                let qu = wo.order[j];
                let du = map[j];
                match data.edge_label(du, dv) {
                    Some(dl) => {
                        let Some(ql2) = q.edge_label(qu, qv) else {
                            debug_assert!(false, "backward position implies query edge");
                            return 0.0;
                        };
                        if !label_matches(ql2, dl) {
                            return 0.0;
                        }
                    }
                    None => return 0.0,
                }
            }
            map.push(dv);
        }
        weight
    }
}

impl CardinalityEstimator for WanderJoin<'_> {
    fn name(&self) -> &'static str {
        if self.injective {
            "WJ-iso"
        } else {
            "WJ"
        }
    }

    fn estimate(&self, query: &Graph, rng: &mut SmallRng) -> Estimate {
        let _span = alss_telemetry::Span::enter("estimator.wj");
        let wo = walk_order(query, self.index);
        let mut total = 0.0f64;
        let mut valid = 0usize;
        for _ in 0..self.samples {
            let w = self.walk(query, &wo, rng);
            if w > 0.0 {
                valid += 1;
            }
            total += w;
        }
        if valid == 0 {
            Estimate::failure()
        } else {
            Estimate::ok(total / self.samples as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alss_graph::builder::graph_from_edges;
    use alss_graph::GraphBuilder;
    use alss_matching::{count_homomorphisms, count_isomorphisms, Budget};
    use rand::SeedableRng;

    /// A graph where WJ estimates should converge near the truth.
    fn clique_data() -> Graph {
        // K6 all label 0
        let mut b = GraphBuilder::new(6);
        for v in 0..6 {
            b.set_label(v, 0);
        }
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                b.add_edge(i, j);
            }
        }
        b.build()
    }

    #[test]
    fn wj_is_approximately_unbiased_on_path_query() {
        let d = clique_data();
        let idx = LabelIndex::new(&d);
        let wj = WanderJoin::new(&idx, 4000);
        let q = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let truth = count_homomorphisms(&d, &q, &Budget::unlimited()).unwrap() as f64;
        let mut rng = SmallRng::seed_from_u64(0);
        let est = wj.estimate(&q, &mut rng);
        assert!(!est.failed);
        let ratio = est.count / truth;
        assert!(
            (0.8..1.25).contains(&ratio),
            "estimate {} vs truth {truth}",
            est.count
        );
    }

    #[test]
    fn wj_triangle_estimate_close() {
        let d = clique_data();
        let idx = LabelIndex::new(&d);
        let wj = WanderJoin::new(&idx, 8000);
        let q = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let truth = count_homomorphisms(&d, &q, &Budget::unlimited()).unwrap() as f64;
        let mut rng = SmallRng::seed_from_u64(1);
        let est = wj.estimate(&q, &mut rng);
        let ratio = est.count / truth;
        assert!((0.7..1.4).contains(&ratio), "{} vs {truth}", est.count);
    }

    #[test]
    fn wj_detects_sampling_failure() {
        // data: two labels never adjacent
        let d = graph_from_edges(&[0, 0, 1, 1], &[(0, 1), (2, 3)]);
        let idx = LabelIndex::new(&d);
        let wj = WanderJoin::new(&idx, 100);
        let q = graph_from_edges(&[0, 1], &[(0, 1)]);
        let mut rng = SmallRng::seed_from_u64(2);
        let est = wj.estimate(&q, &mut rng);
        assert!(est.failed);
        assert_eq!(est.count, 0.0);
    }

    #[test]
    fn iso_variant_rejects_revisits() {
        // path query on a single edge: homomorphism can fold (a-b-a),
        // isomorphism cannot.
        let d = graph_from_edges(&[0, 0], &[(0, 1)]);
        let idx = LabelIndex::new(&d);
        let q = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let truth_iso = count_isomorphisms(&d, &q, &Budget::unlimited()).unwrap();
        assert_eq!(truth_iso, 0);
        let wj = WanderJoin::new_isomorphism(&idx, 200);
        let mut rng = SmallRng::seed_from_u64(3);
        let est = wj.estimate(&q, &mut rng);
        assert!(est.failed, "no injective matching exists: {est:?}");

        // homomorphism variant must see the folded matchings
        let wj_h = WanderJoin::new(&idx, 200);
        let est_h = wj_h.estimate(&q, &mut rng);
        assert!(!est_h.failed);
        assert!(est_h.count > 0.0);
    }

    #[test]
    fn disconnected_queries_multiply_component_estimates() {
        // Two isolated nodes: every walk scores |label-0| · |label-2| = 2,
        // the homomorphism count; injectively, the one label-2 data node
        // cannot host both label-2 query nodes.
        let d = graph_from_edges(&[0, 1, 2, 0], &[(0, 1), (1, 2), (2, 3)]);
        let idx = LabelIndex::new(&d);
        let mut rng = SmallRng::seed_from_u64(4);
        let est = WanderJoin::new(&idx, 50).estimate(&graph_from_edges(&[0, 2], &[]), &mut rng);
        assert_eq!((est.failed, est.count), (false, 2.0));
        let q = graph_from_edges(&[2, 2], &[]);
        let iso = WanderJoin::new_isomorphism(&idx, 50).estimate(&q, &mut rng);
        assert!(iso.failed, "{iso:?}");
    }
}
