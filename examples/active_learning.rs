//! Active learning (§5): start from a base sketch, then run
//! uncertainty-sampling rounds that pick the most informative unlabeled
//! queries, label them with the exact engine, and fine-tune — comparing
//! the CTC strategy against passive (random) selection.
//!
//! Run: `cargo run --release --example active_learning`

use alss::core::train::encode_workload_with;
use alss::core::{
    active_round, LearnedSketch, Parallelism, PoolItem, QErrorStats, SketchConfig, Strategy,
    TrainConfig,
};
use alss::datasets::queries::{unlabeled_pool, WorkloadSpec};
use alss::datasets::{by_name, generate_workload};
use alss::matching::{count_homomorphisms, Budget, Semantics};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let data = by_name("yeast", 0.2, 0).expect("known dataset");
    let workload = generate_workload(
        &data,
        &WorkloadSpec {
            sizes: vec![3, 4, 6],
            per_size: 30,
            semantics: Semantics::Homomorphism,
            ..Default::default()
        },
    );
    let mut rng = SmallRng::seed_from_u64(3);
    let (train, test) = workload.stratified_split(0.7, &mut rng);
    println!(
        "base training on {} queries; {} held out for testing",
        train.len(),
        test.len()
    );

    let cfg = SketchConfig::tiny();
    let (base, _) = LearnedSketch::train(&data, &train, &cfg);

    let test_stats = |sketch: &LearnedSketch| {
        let pairs: Vec<(f64, f64)> = test
            .queries
            .iter()
            .map(|q| (q.count as f64, sketch.estimate(&q.graph)))
            .collect();
        QErrorStats::from_pairs(&pairs).expect("non-empty test")
    };
    println!("base model   {}", test_stats(&base).render());

    // unlabeled pool of fresh queries; the oracle is the exact engine
    let pool_graphs = unlabeled_pool(&data, &[3, 4, 6], 15, 0.0, 9);
    let finetune = TrainConfig::quick(15);

    for strategy in [Strategy::Random, Strategy::CrossTask] {
        let mut sketch = base.clone();
        let mut items = encode_workload_with(sketch.encoder(), &train, Parallelism::auto());
        let mut pool: Vec<PoolItem> = pool_graphs
            .iter()
            .map(|g| PoolItem {
                encoded: sketch.encode(g),
                graph: g.clone(),
            })
            .collect();
        let mut al_rng = SmallRng::seed_from_u64(4);
        let mut labeled_total = 0;
        for round in 0..2u64 {
            let report = active_round(
                &mut sketch,
                &mut items,
                &mut pool,
                |g| {
                    // §5 step ②: compute the exact count for selected queries
                    count_homomorphisms(&data, g, &Budget::new(20_000_000))
                        .ok()
                        .filter(|&c| c >= 1)
                },
                strategy,
                8,
                &finetune,
                round,
                &mut al_rng,
            );
            labeled_total += report.labeled;
        }
        println!(
            "after AL ({}) — {labeled_total} new labels — {}",
            strategy.name(),
            test_stats(&sketch).render()
        );
    }
    println!("\n(uncertainty-driven CTC selection should match or beat random selection,");
    println!("especially on the max / p95 tail — Fig. 10's observation)");
}
