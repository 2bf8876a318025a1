//! End-to-end pipeline integration: synthetic dataset → labeled workload →
//! sketch training → estimation → active learning, across every workspace
//! crate.

// Test code opts back out of the library panic policy: a panic IS the
// failure report here.
#![allow(
    clippy::unwrap_used,
    clippy::cast_possible_truncation,
    clippy::float_cmp
)]
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

fn pipeline_workload() -> (alss::graph::Graph, alss::core::Workload) {
    let data = by_name("yeast", 0.1, 3).expect("dataset");
    let w = generate_workload(
        &data,
        &WorkloadSpec {
            sizes: vec![3, 4],
            per_size: 25,
            semantics: Semantics::Homomorphism,
            budget_per_query: 5_000_000,
            ..Default::default()
        },
    );
    (data, w)
}

#[test]
fn train_estimate_pipeline_beats_untrained_model() {
    let (data, workload) = pipeline_workload();
    assert!(
        workload.len() >= 20,
        "workload too small: {}",
        workload.len()
    );
    let mut rng = SmallRng::seed_from_u64(0);
    let (train, test) = workload.stratified_split(0.8, &mut rng);

    let mut cfg = SketchConfig::tiny();
    cfg.train = TrainConfig::quick(60);
    let (sketch, report) = LearnedSketch::train(&data, &train, &cfg);
    assert!(report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap());

    // untrained model of the same shape
    let mut cfg0 = cfg;
    cfg0.train = TrainConfig::quick(0);
    let (untrained, _) = LearnedSketch::train(&data, &train, &cfg0);

    let stats = |s: &LearnedSketch| {
        let pairs: Vec<(f64, f64)> = test
            .queries
            .iter()
            .map(|q| (q.count as f64, s.estimate(&q.graph)))
            .collect();
        QErrorStats::from_pairs(&pairs).expect("non-empty")
    };
    let trained_stats = stats(&sketch);
    let untrained_stats = stats(&untrained);
    assert!(
        trained_stats.geo_mean < untrained_stats.geo_mean,
        "training should help: {} vs {}",
        trained_stats.geo_mean,
        untrained_stats.geo_mean
    );
    // all estimates valid
    for q in &test.queries {
        let e = sketch.estimate(&q.graph);
        assert!(e.is_finite() && e >= 1.0);
    }
}

#[test]
fn active_learning_rounds_integrate_with_exact_engine() {
    let (data, workload) = pipeline_workload();
    let mut rng = SmallRng::seed_from_u64(1);
    let (train, _) = workload.stratified_split(0.8, &mut rng);
    let mut cfg = SketchConfig::tiny();
    cfg.train = TrainConfig::quick(10);
    let (mut sketch, _) = LearnedSketch::train(&data, &train, &cfg);

    let pool_graphs = unlabeled_pool(&data, &[3, 4], 10, 0.0, 5);
    assert!(!pool_graphs.is_empty());
    let mut items = encode_workload_with(sketch.encoder(), &train, Parallelism::auto());
    let mut pool: Vec<PoolItem> = pool_graphs
        .iter()
        .map(|g| PoolItem {
            encoded: sketch.encode(g),
            graph: g.clone(),
        })
        .collect();
    let n_items = items.len();
    let n_pool = pool.len();
    let report = active_round(
        &mut sketch,
        &mut items,
        &mut pool,
        |g| count_homomorphisms(&data, g, &Budget::new(5_000_000)).ok(),
        Strategy::Entropy,
        5,
        &TrainConfig::quick(5),
        0,
        &mut rng,
    );
    assert_eq!(report.labeled + report.dropped, 5.min(n_pool));
    assert_eq!(items.len(), n_items + report.labeled);
}

#[test]
fn workload_serde_roundtrip() {
    let (_, workload) = pipeline_workload();
    let json = workload.to_json();
    let back = alss::core::Workload::from_json(&json).expect("deserialize");
    assert_eq!(back.len(), workload.len());
    for (a, b) in workload.queries.iter().zip(&back.queries) {
        assert_eq!(a.count, b.count);
        assert_eq!(a.graph, b.graph);
    }
}

#[test]
fn isomorphism_pipeline_works_too() {
    let data = by_name("yeast", 0.1, 4).expect("dataset");
    let w = generate_workload(
        &data,
        &WorkloadSpec {
            sizes: vec![3, 4],
            per_size: 15,
            semantics: Semantics::Isomorphism,
            budget_per_query: 5_000_000,
            ..Default::default()
        },
    );
    assert!(w.len() >= 10);
    let mut rng = SmallRng::seed_from_u64(2);
    let (train, test) = w.stratified_split(0.8, &mut rng);
    let mut cfg = SketchConfig::tiny();
    cfg.train = TrainConfig::quick(30);
    let (sketch, _) = LearnedSketch::train(&data, &train, &cfg);
    for q in &test.queries {
        assert!(sketch.estimate(&q.graph) >= 1.0);
    }
}
