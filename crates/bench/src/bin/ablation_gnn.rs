//! Ablation: GIN (injective sum aggregation, the paper's choice for its
//! WL-test expressiveness) vs mean aggregation (GCN/GraphSAGE-style).
//!
//! Run: `cargo run -p alss-bench --bin ablation_gnn --release`

use alss_bench::evalkit::train_eval_config;
use alss_bench::scenario::{bench_model_config, bench_train_config, load_scenario};
use alss_bench::TableWriter;
use alss_core::{EncodingKind, SketchConfig};
use alss_matching::Semantics;
use alss_nn::Aggregation;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let _telemetry = alss_telemetry::init("ablation_gnn", alss_bench::telemetry_arg().as_deref());
    let mut t = TableWriter::new(&["dataset", "gnn agg", "q-error distribution"]);
    for name in ["aids", "yeast"] {
        let sc = load_scenario(name, Semantics::Homomorphism);
        let mut rng = SmallRng::seed_from_u64(0xAB4);
        let (train, test) = sc.workload.stratified_split(0.8, &mut rng);
        for (label, agg) in [("sum (GIN)", Aggregation::Sum), ("mean", Aggregation::Mean)] {
            let mut model = bench_model_config();
            model.gnn_aggregation = agg;
            let cfg = SketchConfig {
                encoding: EncodingKind::Embedding,
                hops: 3,
                model,
                train: bench_train_config(),
                prone_dim: 32,
                seed: 0xAB4,
            };
            let (stats, _) = train_eval_config(&sc, &train, &test, &cfg);
            t.row(vec![name.to_string(), label.to_string(), stats.render()]);
        }
    }
    println!("== Ablation: GNN neighborhood aggregation ==\n");
    t.print();
    println!("\nexpected: sum (GIN) distinguishes neighbor multiplicities — which carry count");
    println!("signal — and should dominate mean aggregation, per the paper's §4.2 argument.");
}
