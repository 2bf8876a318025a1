//! Ablation: structured self-attention aggregation (the paper's `w(·)`)
//! vs an unweighted sum of substructure representations.
//!
//! Run: `cargo run -p alss-bench --bin ablation_attention --release`

use alss_bench::evalkit::train_eval_config;
use alss_bench::scenario::{bench_model_config, bench_train_config, load_scenario};
use alss_bench::TableWriter;
use alss_core::model::Aggregator;
use alss_core::{EncodingKind, SketchConfig};
use alss_matching::Semantics;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let _telemetry =
        alss_telemetry::init("ablation_attention", alss_bench::telemetry_arg().as_deref());
    let mut t = TableWriter::new(&["dataset", "aggregator", "q-error distribution"]);
    for name in ["aids", "yeast"] {
        let sc = load_scenario(name, Semantics::Homomorphism);
        let mut rng = SmallRng::seed_from_u64(0xAB3);
        let (train, test) = sc.workload.stratified_split(0.8, &mut rng);
        for (label, agg) in [
            ("attention", Aggregator::Attention),
            ("sum-pool", Aggregator::SumPool),
        ] {
            let mut model = bench_model_config();
            model.aggregator = agg;
            let cfg = SketchConfig {
                encoding: EncodingKind::Embedding,
                hops: 3,
                model,
                train: bench_train_config(),
                prone_dim: 32,
                seed: 0xAB3,
            };
            let (stats, _) = train_eval_config(&sc, &train, &test, &cfg);
            t.row(vec![name.to_string(), label.to_string(), stats.render()]);
        }
    }
    println!("== Ablation: substructure aggregation ==\n");
    t.print();
    println!("\nexpected: attention learns query-specific substructure weights and beats the");
    println!("unweighted sum, which treats redundant and informative substructures alike.");
}
