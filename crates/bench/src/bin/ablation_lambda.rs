//! Ablation: multi-task coefficient λ of Eq. (6) (paper: λ = 1/3). λ = 0
//! disables the magnitude classifier (and with it the AL uncertainty
//! signal); λ → 1 starves the regression head.
//!
//! Run: `cargo run -p alss-bench --bin ablation_lambda --release`

use alss_bench::evalkit::train_eval_config;
use alss_bench::scenario::{bench_model_config, bench_train_config, load_scenario};
use alss_bench::TableWriter;
use alss_core::{EncodingKind, SketchConfig};
use alss_matching::Semantics;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let _telemetry =
        alss_telemetry::init("ablation_lambda", alss_bench::telemetry_arg().as_deref());
    let sc = load_scenario("aids", Semantics::Homomorphism);
    let mut rng = SmallRng::seed_from_u64(0xAB2);
    let (train, test) = sc.workload.stratified_split(0.8, &mut rng);
    println!(
        "== Ablation: Eq. (6) λ sweep (aids, {} test queries) ==\n",
        test.len()
    );
    let mut t = TableWriter::new(&["lambda", "q-error distribution"]);
    for lambda in [0.0f32, 1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0, 0.9] {
        let mut model = bench_model_config();
        model.lambda = lambda;
        let cfg = SketchConfig {
            encoding: EncodingKind::Embedding,
            hops: 3,
            model,
            train: bench_train_config(),
            prone_dim: 32,
            seed: 0xAB2,
        };
        let (stats, _) = train_eval_config(&sc, &train, &test, &cfg);
        t.row(vec![format!("{lambda:.2}"), stats.render()]);
    }
    t.print();
    println!("\nexpected: accuracy is flat for moderate λ (the paper reports insensitivity);");
    println!("large λ degrades regression. λ = 0 trains no classifier → no AL signal.");
}
