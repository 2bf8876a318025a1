//! Synthetic analogues of the paper's six data graphs (Table 2).
//!
//! The real graphs are not redistributable here, so each analogue is a
//! generated graph matched on the *distributional knobs the paper's
//! analysis depends on*: topology family, sparsity, `|Σ|`, and the label
//! entropy `Ent(Σ)` (§6.2 ties baseline sampling failure to exactly these).
//! Sizes are scaled down 5–50× for laptop-scale exact ground truth; the
//! `scale` parameter (1.0 = our default bench size) lets callers grow them.

use crate::generators::{
    barabasi_albert, erdos_renyi, knowledge_graph, molecule_forest, watts_strogatz,
};
use crate::zipf::assign_labels;
use alss_graph::{Graph, GraphBuilder};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Descriptor of one synthetic dataset (a Table 2 row).
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Paper dataset this mimics (e.g. `"aids"`).
    pub name: &'static str,
    /// Topology family description (for documentation output).
    pub family: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Number of node labels `|Σ|`.
    pub labels: usize,
    /// Number of edge labels `|Σ_E|` (0 = node labels only).
    pub edge_labels: usize,
    /// Target label entropy `Ent(Σ)` from Table 2.
    pub entropy: f64,
}

/// The six Table 2 rows at default (scaled-down) sizes.
pub fn all_specs(scale: f64) -> Vec<DatasetSpec> {
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "scale is a shrink factor in (0, 1]; the product stays within usize"
    )]
    let s = |n: usize| ((n as f64 * scale) as usize).max(64);
    vec![
        DatasetSpec {
            name: "aids",
            family: "molecule forest",
            nodes: s(20_000),
            labels: 51,
            edge_labels: 0,
            entropy: 0.93,
        },
        DatasetSpec {
            name: "yeast",
            family: "small world",
            nodes: s(3_112),
            labels: 71,
            edge_labels: 0,
            entropy: 2.92,
        },
        DatasetSpec {
            name: "youtube",
            family: "preferential attachment",
            nodes: s(25_000),
            labels: 20,
            edge_labels: 0,
            entropy: 2.9, // near-uniform random assignment (Ent 3.21 of 20 labels ≈ ln 20)
        },
        DatasetSpec {
            name: "wordnet",
            family: "sparse lexical",
            nodes: s(15_000),
            labels: 5,
            edge_labels: 0,
            entropy: 0.66,
        },
        DatasetSpec {
            name: "eu2005",
            family: "dense web (PA)",
            nodes: s(12_000),
            labels: 40,
            edge_labels: 0,
            entropy: 3.68,
        },
        DatasetSpec {
            name: "yago",
            family: "knowledge graph",
            nodes: s(30_000),
            labels: 2_000,
            edge_labels: 30,
            entropy: 6.5,
        },
    ]
}

/// Generate the analogue for a spec.
pub fn generate(spec: &DatasetSpec, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = spec.nodes;
    let labeled_edges: Vec<(u32, u32, u32)> = match spec.name {
        "aids" => molecule_forest(n, 8..40, 0.35, &mut rng)
            .into_iter()
            .map(|(u, v)| (u, v, u32::MAX))
            .collect(),
        "yeast" => watts_strogatz(n, 2, 0.3, &mut rng)
            .into_iter()
            .chain(erdos_renyi(n, n * 2, &mut rng))
            .map(|(u, v)| (u, v, u32::MAX))
            .collect(),
        "youtube" => barabasi_albert(n, 3, &mut rng)
            .into_iter()
            .map(|(u, v)| (u, v, u32::MAX))
            .collect(),
        "wordnet" => molecule_forest(n, 30..200, 0.15, &mut rng)
            .into_iter()
            .chain(erdos_renyi(n, n / 2, &mut rng))
            .map(|(u, v)| (u, v, u32::MAX))
            .collect(),
        "eu2005" => barabasi_albert(n, 8, &mut rng)
            .into_iter()
            .chain(erdos_renyi(n, n * 4, &mut rng))
            .map(|(u, v)| (u, v, u32::MAX))
            .collect(),
        "yago" => knowledge_graph(
            n,
            n + n / 4,
            alss_graph::label_id(spec.edge_labels),
            &mut rng,
        ),
        #[expect(
            clippy::panic,
            reason = "spec names come from the static DATASETS table; reachable only through a bug in this file"
        )]
        other => panic!("unknown dataset spec '{other}'"),
    };
    let labels = assign_labels(n, spec.labels, spec.entropy, &mut rng);
    let mut b = GraphBuilder::new(n);
    b.set_labels(&labels);
    if spec.name == "yago" {
        // knowledge-graph entities carry multiple types (multi-label nodes)
        use rand::Rng as _;
        for v in 0..alss_graph::node_id(n) {
            if rng.gen_bool(0.2) {
                let extras = rng.gen_range(1..=2);
                for _ in 0..extras {
                    b.add_extra_label(v, rng.gen_range(0..alss_graph::label_id(spec.labels)));
                }
            }
        }
    }
    for (u, v, l) in labeled_edges {
        if l == u32::MAX {
            b.add_edge(u, v);
        } else {
            b.add_labeled_edge(u, v, l);
        }
    }
    b.build()
}

/// Generate one dataset by paper name at the given scale.
pub fn by_name(name: &str, scale: f64, seed: u64) -> Option<Graph> {
    all_specs(scale)
        .into_iter()
        .find(|s| s.name == name)
        .map(|s| generate(&s, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alss_graph::labels::LabelStats;

    #[test]
    fn all_specs_generate_valid_graphs() {
        for spec in all_specs(0.05) {
            let g = generate(&spec, 1);
            assert!(g.num_nodes() >= 64, "{}", spec.name);
            assert!(g.num_edges() > 0, "{}", spec.name);
            assert!(
                g.num_node_labels() <= spec.labels,
                "{}: labels {} > {}",
                spec.name,
                g.num_node_labels(),
                spec.labels
            );
            if spec.edge_labels > 0 {
                assert!(g.has_edge_labels(), "{}", spec.name);
            }
        }
    }

    #[test]
    fn entropy_close_to_target() {
        for spec in all_specs(0.2) {
            if spec.name == "yago" {
                continue; // label universe larger than node count at small scale
            }
            let g = generate(&spec, 2);
            let ent = LabelStats::new(&g).entropy();
            assert!(
                (ent - spec.entropy).abs() < 0.35,
                "{}: entropy {ent} vs target {}",
                spec.name,
                spec.entropy
            );
        }
    }

    #[test]
    fn aids_like_is_sparse_youtube_like_is_denser() {
        let aids = by_name("aids", 0.05, 3).unwrap();
        let yt = by_name("youtube", 0.05, 3).unwrap();
        let r_aids = aids.num_edges() as f64 / aids.num_nodes() as f64;
        let r_yt = yt.num_edges() as f64 / yt.num_nodes() as f64;
        assert!(r_aids < 1.3, "aids ratio {r_aids}");
        assert!(r_yt > 2.0, "youtube ratio {r_yt}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = by_name("yeast", 0.05, 9).unwrap();
        let b = by_name("yeast", 0.05, 9).unwrap();
        assert_eq!(a, b);
        let c = by_name("yeast", 0.05, 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("imdb", 1.0, 0).is_none());
    }
}
