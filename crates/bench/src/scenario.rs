//! What every figure binary starts from: the one bench sketch
//! configuration, each dataset's scenario (data graph plus labeled
//! workload, cached as JSON), the datasets named on the command line and
//! the §6.2 80/20 split.

use alss_core::workload::Workload;
use alss_core::{EncodingKind, LssConfig, SketchConfig, TrainConfig};
use alss_datasets::queries::WorkloadSpec;
use alss_datasets::{by_name, generate_workload};
use alss_graph::io::{from_text, to_text};
use alss_graph::Graph;
use alss_matching::Semantics;
use alss_nn::AdamConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// The value of environment variable `name`, or `default` when it is
/// unset or does not parse.
fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Dataset scale factor (`ALSS_SCALE`).
pub fn scale() -> f64 {
    env_or("ALSS_SCALE", 0.25)
}

/// Labeled queries per query size (`ALSS_PER_SIZE`).
pub fn per_size() -> usize {
    env_or("ALSS_PER_SIZE", 40)
}

/// The sketch configuration every bench binary trains: 3-hop
/// decomposition (the paper's `l`), a 32-dimensional ProNE embedding,
/// `ALSS_EPOCHS` (default 60) epochs of Adam, and the fast 2×32 GIN with
/// 2 attention heads, or under `ALSS_FULL=1` the paper-fidelity model
/// (3×64 GIN, 4-head attention, dropout 0.5). An ablation changes one
/// field of it.
pub fn bench_sketch_config(encoding: EncodingKind, seed: u64) -> SketchConfig {
    let model = if std::env::var("ALSS_FULL").is_ok_and(|v| v == "1") {
        LssConfig::default()
    } else {
        LssConfig {
            hidden: 32,
            gnn_layers: 2,
            dropout: 0.1,
            att_hidden: 32,
            att_heads: 2,
            mlp_hidden: 32,
            ..Default::default()
        }
    };
    let train = TrainConfig {
        epochs: env_or("ALSS_EPOCHS", 60),
        batch_size: 4,
        adam: AdamConfig {
            lr: 3e-3,
            weight_decay: 1e-5,
            lr_decay: 0.97,
            ..Default::default()
        },
        seed: 42,
        parallelism: alss_core::Parallelism::auto(),
    };
    SketchConfig {
        encoding,
        hops: 3,
        model,
        train,
        prone_dim: 32,
        seed,
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

impl Scenario {
    /// §6.2's protocol: each query-size bucket, shuffled by `seed`, gives
    /// 80% of its queries to the first (train) part and the rest to the
    /// second (test) part.
    pub fn split(&self, seed: u64) -> (Workload, Workload) {
        self.workload
            .stratified_split(0.8, &mut SmallRng::seed_from_u64(seed))
    }
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

/// The scenarios of the datasets selected on the command line (see
/// [`selected_datasets`]), loaded one at a time and skipping each whose
/// workload has fewer than 10 queries, too few to split 80/20.
pub fn figure_scenarios(defaults: &[&str], semantics: Semantics) -> impl Iterator<Item = Scenario> {
    selected_datasets(defaults)
        .into_iter()
        .map(move |name| load_scenario(&name, semantics))
        .filter(|sc| {
            let big_enough = sc.workload.len() >= 10;
            if !big_enough {
                alss_telemetry::progress(
                    "scenario",
                    &format!(
                        "{}: workload too small ({}), skipped",
                        sc.name,
                        sc.workload.len()
                    ),
                );
            }
            big_enough
        })
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
