//! Label statistics: frequency `F(l)`, entropy `Ent(Σ)`, and label coverage.

use crate::{Graph, LabelId, WILDCARD};

/// Per-label occurrence statistics of a data graph (§4.3, Table 2).
///
/// `F(l) = |{v | L(v) = l}|` drives the frequency-based feature encoding,
/// and the label entropy `Ent(Σ) = -Σ_l p(l) log p(l)` (natural log, as in
/// Table 2) characterizes label skew: the *lower* the entropy the more
/// skewed the distribution.
#[derive(Clone, Debug)]
pub struct LabelStats {
    freq: Vec<u64>,
    num_nodes: u64,
    edge_freq: Vec<u64>,
    num_edges: u64,
}

impl LabelStats {
    /// Compute label statistics of a data graph.
    pub fn new(g: &Graph) -> Self {
        let mut freq = vec![0u64; g.num_node_labels()];
        for v in g.nodes() {
            // multi-labeled nodes contribute to every label they carry
            // (F(l) = |{v : l ∈ L(v)}|, §4.3)
            for l in g.labels_of(v) {
                freq[l as usize] += 1;
            }
        }
        let mut edge_freq = vec![0u64; g.num_edge_labels()];
        if g.has_edge_labels() {
            for e in g.edges() {
                if e.label != WILDCARD {
                    edge_freq[e.label as usize] += 1;
                }
            }
        }
        LabelStats {
            freq,
            num_nodes: g.num_nodes() as u64,
            edge_freq,
            num_edges: g.num_edges() as u64,
        }
    }

    /// Statistics from their raw counts: `freq[l]` nodes carry node label
    /// `l` and `edge_freq[l]` edges carry edge label `l`, of `num_nodes`
    /// nodes and `num_edges` edges. Nothing is checked against a graph:
    /// this is how a stored sketch gets its statistics back.
    pub fn from_counts(
        freq: Vec<u64>,
        num_nodes: u64,
        edge_freq: Vec<u64>,
        num_edges: u64,
    ) -> Self {
        LabelStats {
            freq,
            num_nodes,
            edge_freq,
            num_edges,
        }
    }

    /// Number of data nodes `|V|`.
    pub fn num_nodes(&self) -> u64 {
        self.num_nodes
    }

    /// Number of data edges `|E|`.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Number of distinct node labels tracked.
    pub fn num_labels(&self) -> usize {
        self.freq.len()
    }

    /// Number of distinct edge labels tracked (0 if not edge-labeled).
    pub fn num_edge_labels(&self) -> usize {
        self.edge_freq.len()
    }

    /// `F(l)`: number of nodes carrying label `l`.
    #[inline]
    pub fn frequency(&self, l: LabelId) -> u64 {
        self.freq.get(l as usize).copied().unwrap_or(0)
    }

    /// `F(l)/|V|`: fraction of data nodes matching a query node labeled `l`
    /// (1.0 for [`WILDCARD`], matching the paper's encoding).
    #[inline]
    pub fn selectivity(&self, l: LabelId) -> f64 {
        if l == WILDCARD {
            return 1.0;
        }
        if self.num_nodes == 0 {
            return 0.0;
        }
        self.frequency(l) as f64 / self.num_nodes as f64
    }

    /// Number of edges carrying edge label `l` (0 if not edge-labeled).
    #[inline]
    pub fn edge_frequency(&self, l: LabelId) -> u64 {
        self.edge_freq.get(l as usize).copied().unwrap_or(0)
    }

    /// Fraction of edges matching a query edge labeled `l`.
    #[inline]
    pub fn edge_selectivity(&self, l: LabelId) -> f64 {
        if l == WILDCARD {
            return 1.0;
        }
        if self.num_edges == 0 {
            return 0.0;
        }
        self.edge_frequency(l) as f64 / self.num_edges as f64
    }

    /// Label entropy `Ent(Σ)` over the node-label distribution (natural
    /// log, Table 2). Higher entropy ⇒ flatter distribution.
    pub fn entropy(&self) -> f64 {
        let n = self.num_nodes as f64;
        if n == 0.0 {
            return 0.0;
        }
        -self
            .freq
            .iter()
            .filter(|&&f| f > 0)
            .map(|&f| {
                let p = f as f64 / n;
                p * p.ln()
            })
            .sum::<f64>()
    }

    /// Labels sorted by descending frequency; used by the §6.6 workload
    /// generator ("frequent labels" = top 20% of `Σ`).
    pub fn labels_by_frequency(&self) -> Vec<LabelId> {
        let mut order: Vec<LabelId> = (0..crate::label_id(self.freq.len())).collect();
        order.sort_by_key(|&l| std::cmp::Reverse(self.freq[l as usize]));
        order
    }
}

/// `Cov(Σ)` of a query workload: average number of (non-wildcard) labels per
/// query node (Table 3; with single labels per node this is the fraction of
/// labeled query nodes).
pub fn label_coverage(queries: &[Graph]) -> f64 {
    let mut labeled = 0u64;
    let mut total = 0u64;
    for q in queries {
        for v in q.nodes() {
            total += 1;
            if q.label(v) != WILDCARD {
                labeled += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        labeled as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn frequency_and_selectivity() {
        let g = graph_from_edges(&[0, 0, 1, 2], &[(0, 1), (1, 2), (2, 3)]);
        let s = LabelStats::new(&g);
        assert_eq!(s.frequency(0), 2);
        assert_eq!(s.frequency(1), 1);
        assert_eq!(s.frequency(9), 0);
        assert!((s.selectivity(0) - 0.5).abs() < 1e-12);
        assert_eq!(s.selectivity(WILDCARD), 1.0);
    }

    #[test]
    fn entropy_uniform_vs_skewed() {
        let uniform = graph_from_edges(&[0, 1, 2, 3], &[(0, 1)]);
        let skewed = graph_from_edges(&[0, 0, 0, 1], &[(0, 1)]);
        let eu = LabelStats::new(&uniform).entropy();
        let es = LabelStats::new(&skewed).entropy();
        assert!((eu - (4.0f64).ln()).abs() < 1e-9);
        assert!(es < eu);
    }

    #[test]
    fn coverage_counts_wildcards() {
        let q1 = graph_from_edges(&[0, WILDCARD], &[(0, 1)]);
        let q2 = graph_from_edges(&[1, 1], &[(0, 1)]);
        let cov = label_coverage(&[q1, q2]);
        assert!((cov - 0.75).abs() < 1e-12);
    }

    #[test]
    fn frequency_ordering() {
        let g = graph_from_edges(&[2, 2, 2, 0, 1, 1], &[(0, 1)]);
        let s = LabelStats::new(&g);
        assert_eq!(s.labels_by_frequency(), vec![2, 1, 0]);
    }
}
