//! Scenario loading: datasets + workloads with JSON caching.

use alss_core::workload::Workload;
use alss_core::{LssConfig, TrainConfig};
use alss_datasets::queries::WorkloadSpec;
use alss_datasets::{by_name, generate_workload};
use alss_graph::io::{from_text, to_text};
use alss_graph::Graph;
use alss_matching::Semantics;
use alss_nn::AdamConfig;
use std::path::PathBuf;

/// Environment-variable dataset scale factor.
pub fn scale() -> f64 {
    std::env::var("ALSS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25)
}

/// Labeled queries per query size.
pub fn per_size() -> usize {
    std::env::var("ALSS_PER_SIZE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40)
}

/// Training epochs.
pub fn epochs() -> usize {
    std::env::var("ALSS_EPOCHS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60)
}

/// Whether to use the paper-fidelity model configuration.
pub fn full_fidelity() -> bool {
    std::env::var("ALSS_FULL").is_ok_and(|v| v == "1")
}

/// The model configuration used by the bench binaries.
pub fn bench_model_config() -> LssConfig {
    if full_fidelity() {
        LssConfig::default() // 3×64 GIN, 4-head attention, dropout 0.5
    } else {
        LssConfig {
            hidden: 32,
            gnn_layers: 2,
            dropout: 0.1,
            att_hidden: 32,
            att_heads: 2,
            mlp_hidden: 32,
            num_classes: 16,
            lambda: 1.0 / 3.0,
            ..Default::default()
        }
    }
}

/// The training configuration used by the bench binaries.
pub fn bench_train_config() -> TrainConfig {
    TrainConfig {
        epochs: epochs(),
        batch_size: 4,
        adam: AdamConfig {
            lr: 3e-3,
            weight_decay: 1e-5,
            lr_decay: 0.97,
            ..Default::default()
        },
        seed: 42,
        parallelism: alss_core::Parallelism::auto(),
    }
}

/// Query sizes per dataset, mirroring Table 3 (larger sizes are capped at
/// small scale to keep exact ground truth computable).
pub fn query_sizes(dataset: &str) -> Vec<usize> {
    match dataset {
        "aids" => vec![3, 6, 9, 12],
        "yeast" => vec![4, 8, 16, 24],
        "wordnet" => vec![4, 8, 12],
        "eu2005" => vec![4, 8],
        "yago" => vec![3, 6, 9, 12],
        "youtube" => vec![4, 8, 16],
        _ => vec![4, 8],
    }
}

/// A cached dataset + workload pair.
pub struct Scenario {
    /// Dataset name (Table 2 row).
    pub name: String,
    /// The synthetic data graph.
    pub data: Graph,
    /// The labeled query workload (Table 3 row).
    pub workload: Workload,
    /// Counting semantics of the workload.
    pub semantics: Semantics,
}

fn cache_dir() -> PathBuf {
    let p =
        PathBuf::from(std::env::var("ALSS_CACHE_DIR").unwrap_or_else(|_| "bench_data".to_string()));
    std::fs::create_dir_all(&p).ok();
    p
}

/// Generate (or load from cache) a Table 2 data graph.
pub fn load_dataset(name: &str) -> Graph {
    let path = cache_dir().join(format!("{name}_{:.3}_graph.txt", scale()));
    // A cache entry that does not parse is regenerated.
    let cached = std::fs::read_to_string(&path).ok();
    if let Some(g) = cached.and_then(|text| from_text(&text).ok()) {
        return g;
    }
    alss_telemetry::progress(
        "scenario",
        &format!("generating dataset {name} at scale {:.3}", scale()),
    );
    #[expect(
        clippy::panic,
        reason = "bench CLI surface; an unknown dataset name is a usage error"
    )]
    let g = by_name(name, scale(), 0xA155).unwrap_or_else(|| panic!("unknown dataset {name}"));
    std::fs::write(&path, to_text(&g)).ok();
    g
}

/// Generate (or load from cache) the Table 3 workload for a dataset.
pub fn load_workload(name: &str, data: &Graph, semantics: Semantics) -> Workload {
    let sem = match semantics {
        Semantics::Homomorphism => "hom",
        Semantics::Isomorphism => "iso",
    };
    let path = cache_dir().join(format!(
        "{name}_{:.3}_{}_{}_queries.json",
        scale(),
        sem,
        per_size()
    ));
    // Each query is read by `from_text`; an entry that does not parse is
    // regenerated.
    let cached = std::fs::read_to_string(&path).ok();
    if let Some(w) = cached.and_then(|text| Workload::from_json(&text).ok()) {
        return w;
    }
    alss_telemetry::progress(
        "scenario",
        &format!("labeling {name} {sem} workload ({} per size)", per_size()),
    );
    let spec = WorkloadSpec {
        sizes: query_sizes(name),
        per_size: per_size(),
        semantics,
        budget_per_query: 20_000_000,
        // match Table 3's Cov(Σ): aids 0.03, yago 0.1, the rest fully labeled
        wildcard_prob: match name {
            "aids" => 0.95,
            "yago" => 0.85,
            _ => 0.0,
        },
        // the paper's query sets (SubgraphMatching benchmark) are induced
        // subgraphs; the cycle-closing constraints they carry are what
        // drives baseline sampling failure on complex graphs. aids keeps
        // sparse extraction (its queries are near-trees in the original).
        induced: name != "aids",
        seed: 0xC0DE ^ name.len() as u64,
    };
    let w = generate_workload(data, &spec);
    std::fs::write(&path, w.to_json()).ok();
    w
}

/// Load a full scenario.
pub fn load_scenario(name: &str, semantics: Semantics) -> Scenario {
    let data = load_dataset(name);
    let workload = load_workload(name, &data, semantics);
    Scenario {
        name: name.to_string(),
        data,
        workload,
        semantics,
    }
}

/// Datasets selected on the command line (defaults to `defaults` if no
/// args are given). The `--telemetry` flag and its value are not dataset
/// names and are skipped.
pub fn selected_datasets(defaults: &[&str]) -> Vec<String> {
    let args = crate::telemetry::strip_run_flags(std::env::args().skip(1).collect());
    if args.is_empty() {
        defaults.iter().map(|s| s.to_string()).collect()
    } else {
        args
    }
}
