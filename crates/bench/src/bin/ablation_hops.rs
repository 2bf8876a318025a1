//! Ablation: BFS-tree decomposition depth `l` (the paper fixes `l = 3`;
//! DESIGN.md calls out 1/2/3-hop as a design-choice ablation).
//!
//! Run: `cargo run -p alss-bench --bin ablation_hops --release`

use alss_bench::evalkit::train_eval_config;
use alss_bench::scenario::{bench_model_config, bench_train_config, load_scenario};
use alss_bench::TableWriter;
use alss_core::{EncodingKind, SketchConfig};
use alss_matching::Semantics;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let _telemetry = alss_telemetry::init("ablation_hops", alss_bench::telemetry_arg().as_deref());
    let sc = load_scenario("aids", Semantics::Homomorphism);
    let mut rng = SmallRng::seed_from_u64(0xAB1);
    let (train, test) = sc.workload.stratified_split(0.8, &mut rng);
    println!(
        "== Ablation: decomposition depth l (aids, {} test queries) ==\n",
        test.len()
    );
    let mut t = TableWriter::new(&["l", "q-error distribution", "train s"]);
    for hops in [1u32, 2, 3, 4] {
        let cfg = SketchConfig {
            encoding: EncodingKind::Embedding,
            hops,
            model: bench_model_config(),
            train: bench_train_config(),
            prone_dim: 32,
            seed: 0xAB1,
        };
        let (stats, report) = train_eval_config(&sc, &train, &test, &cfg);
        t.row(vec![
            hops.to_string(),
            stats.render(),
            format!("{:.1}", report.duration.as_secs_f64()),
        ]);
    }
    t.print();
    println!("\nexpected: l=3 (the paper's setting) at or near the best accuracy; l=1 loses");
    println!("multi-hop context; larger l grows substructures (and cost) with little gain.");
}
