//! Query-workload generation (Table 3): random connected subgraphs of the
//! data graph, labeled with exact counts in parallel, keeping only queries
//! whose ground truth fits the expansion budget (the paper's 2-hour
//! filter).

use alss_core::workload::{LabeledQuery, Workload};
use alss_core::{par_map, Parallelism};
use alss_graph::extract::{extract_pattern, extract_query, ExtractOptions};
use alss_graph::io::to_text;
use alss_graph::labels::LabelStats;
use alss_graph::{Graph, LabelId, NodeId, WILDCARD};
use alss_matching::{Budget, Semantics};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Workload-generation parameters.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Query sizes to generate (Table 3's "Query Sizes").
    pub sizes: Vec<usize>,
    /// Target number of labeled queries per size.
    pub per_size: usize,
    /// Counting semantics (homomorphism or isomorphism).
    pub semantics: Semantics,
    /// Per-query exact-count expansion budget (stands in for the paper's
    /// 2-hour timeout).
    pub budget_per_query: u64,
    /// Probability of degrading a node label to a wildcard.
    pub wildcard_prob: f64,
    /// Extract induced subgraphs (denser queries) or sparsified ones.
    pub induced: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            sizes: vec![3, 6, 9, 12],
            per_size: 50,
            semantics: Semantics::Homomorphism,
            budget_per_query: 20_000_000,
            wildcard_prob: 0.05,
            induced: false,
            seed: 1,
        }
    }
}

/// Generate a labeled workload. Candidate queries are extracted until each
/// size bucket reaches `per_size` labeled queries or the candidate budget
/// (`10 × per_size` per size) runs out. Labeling runs the candidates
/// through [`par_map`] (`ALSS_THREADS` workers), each with its own budget,
/// and keeps candidate order, so the workload is identical at any thread
/// count.
pub fn generate_workload(data: &Graph, spec: &WorkloadSpec) -> Workload {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let opts = ExtractOptions {
        induced: spec.induced,
        extra_edge_prob: 0.4,
        wildcard_prob: spec.wildcard_prob,
        drop_edge_labels: false,
    };
    let mut queries = Vec::new();
    for &size in &spec.sizes {
        // oversample candidates (dedup by text form)
        let mut cands: Vec<Graph> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let attempts = spec.per_size * 10;
        for _ in 0..attempts {
            if cands.len() >= spec.per_size * 3 {
                break;
            }
            if let Some(q) = extract_query(data, size, &opts, &mut rng) {
                if seen.insert(to_text(&q)) {
                    cands.push(q);
                }
            }
        }
        // parallel exact labeling
        let counts = par_map(Parallelism::auto(), &cands, |_, q| {
            spec.semantics
                .count(data, q, &Budget::new(spec.budget_per_query))
        });
        let labeled = cands.into_iter().zip(counts).filter_map(|(q, c)| match c {
            Ok(c) if c >= 1 => Some(LabeledQuery::new(q, c)),
            _ => None, // zero-count or budget-exceeded: dropped
        });
        queries.extend(labeled.take(spec.per_size));
    }
    Workload::from_queries(queries)
}

/// Generate an *unlabeled* pool of queries (for active-learning pools).
pub fn unlabeled_pool(
    data: &Graph,
    sizes: &[usize],
    per_size: usize,
    wildcard_prob: f64,
    seed: u64,
) -> Vec<Graph> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let opts = ExtractOptions {
        induced: false,
        extra_edge_prob: 0.4,
        wildcard_prob,
        drop_edge_labels: false,
    };
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for &size in sizes {
        let mut got = 0;
        for _ in 0..per_size * 10 {
            if got >= per_size {
                break;
            }
            if let Some(q) = extract_query(data, size, &opts, &mut rng) {
                if seen.insert(to_text(&q)) {
                    out.push(q);
                    got += 1;
                }
            }
        }
    }
    out
}

/// §6.6 workload: unlabeled patterns with controlled label frequency.
/// Attaches one of the data graph's *frequent* labels (top 20% of `Σ` by
/// frequency) to `num_frequent` randomly chosen pattern nodes and an
/// *infrequent* label to the rest.
pub fn assign_pattern_labels<R: Rng>(
    pattern: &Graph,
    stats: &LabelStats,
    num_frequent: usize,
    rng: &mut R,
) -> Graph {
    let order = stats.labels_by_frequency();
    assert!(!order.is_empty(), "data graph has no labels");
    let cut = (order.len() / 5).max(1);
    let (freq, infreq) = order.split_at(cut);
    let infreq = if infreq.is_empty() { freq } else { infreq };
    let n = pattern.num_nodes();
    let mut idx: Vec<usize> = (0..n).collect();
    use rand::seq::SliceRandom;
    idx.shuffle(rng);
    let mut labels: Vec<LabelId> = vec![WILDCARD; n];
    for (i, &v) in idx.iter().enumerate() {
        labels[v] = if i < num_frequent.min(n) {
            freq[rng.gen_range(0..freq.len())]
        } else {
            infreq[rng.gen_range(0..infreq.len())]
        };
    }
    let mut b = alss_graph::GraphBuilder::new(n);
    b.set_labels(&labels);
    for e in pattern.edges() {
        b.add_edge(e.u, e.v);
    }
    b.build()
}

/// Extract `count` unlabeled connected patterns of a given size (§6.6).
pub fn unlabeled_patterns(data: &Graph, size: usize, count: usize, seed: u64) -> Vec<Graph> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..count * 20 {
        if out.len() >= count {
            break;
        }
        if let Some(p) = extract_pattern(data, size, false, &mut rng) {
            if seen.insert(to_text(&p)) {
                out.push(p);
            }
        }
    }
    out
}

/// Re-exported node id type for workload consumers.
pub type Node = NodeId;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::by_name;

    #[test]
    fn workload_generation_labels_queries() {
        let g = by_name("yeast", 0.05, 0).unwrap();
        let spec = WorkloadSpec {
            sizes: vec![3, 4],
            per_size: 5,
            budget_per_query: 5_000_000,
            ..Default::default()
        };
        let w = generate_workload(&g, &spec);
        assert!(!w.is_empty());
        for q in &w.queries {
            assert!(q.count >= 1);
            assert!(q.graph.is_connected());
            assert!(q.size() == 3 || q.size() == 4);
        }
    }

    #[test]
    fn isomorphism_workloads_use_iso_counts() {
        let g = by_name("yeast", 0.05, 1).unwrap();
        let mk = |sem| {
            generate_workload(
                &g,
                &WorkloadSpec {
                    sizes: vec![3],
                    per_size: 8,
                    semantics: sem,
                    seed: 3,
                    ..Default::default()
                },
            )
        };
        let hom = mk(Semantics::Homomorphism);
        let iso = mk(Semantics::Isomorphism);
        assert!(!hom.is_empty() && !iso.is_empty());
        // same extraction seed → same query shapes; iso counts ≤ hom counts
        for (h, i) in hom.queries.iter().zip(&iso.queries) {
            if h.graph == i.graph {
                assert!(i.count <= h.count);
            }
        }
    }

    #[test]
    fn pattern_label_assignment_controls_frequency() {
        let g = by_name("wordnet", 0.05, 2).unwrap();
        let stats = LabelStats::new(&g);
        let pats = unlabeled_patterns(&g, 4, 3, 5);
        assert!(!pats.is_empty());
        let mut rng = SmallRng::seed_from_u64(6);
        let order = stats.labels_by_frequency();
        let cut = (order.len() / 5).max(1);
        let frequent: std::collections::HashSet<_> = order[..cut].iter().copied().collect();
        let labeled = assign_pattern_labels(&pats[0], &stats, 2, &mut rng);
        let n_freq = labeled
            .nodes()
            .filter(|&v| frequent.contains(&labeled.label(v)))
            .count();
        assert!(
            n_freq >= 2,
            "expected ≥ 2 frequent-labeled nodes, got {n_freq}"
        );
        // all nodes labeled (no wildcards)
        assert!(labeled.nodes().all(|v| labeled.label(v) != WILDCARD));
    }

    #[test]
    fn pools_are_deduplicated() {
        let g = by_name("yeast", 0.05, 3).unwrap();
        let pool = unlabeled_pool(&g, &[3], 10, 0.0, 7);
        let texts: std::collections::HashSet<_> = pool.iter().map(to_text).collect();
        assert_eq!(texts.len(), pool.len());
    }
}
