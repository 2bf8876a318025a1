//! Ablation: the pre-trained embedding behind LSS-emb — DeepWalk vs
//! node2vec vs ProNE (the paper tried four methods and chose ProNE for
//! its scalability and stable accuracy; §6.1).
//!
//! Run: `cargo run -p alss-bench --bin ablation_embedding --release`

use alss_bench::evalkit::{qerror_cell, score_sketch};
use alss_bench::scenario::{bench_sketch_config, load_scenario};
use alss_bench::table::fnum;
use alss_bench::TableWriter;
use alss_core::{Encoder, EncodingKind, LearnedSketch};
use alss_embedding::prone::{prone, ProneConfig};
use alss_embedding::skipgram::SkipGramConfig;
use alss_embedding::{deepwalk, node2vec, DeepWalkConfig, Embedding, Node2VecConfig};
use alss_graph::augmented::label_augmented_graph;
use alss_matching::Semantics;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Pre-train one embedding with an RNG seeded `seed`, timed in seconds.
fn timed(seed: u64, pretrain: impl FnOnce(&mut SmallRng) -> Embedding) -> (Embedding, f64) {
    let t0 = Instant::now();
    let e = pretrain(&mut SmallRng::seed_from_u64(seed));
    (e, t0.elapsed().as_secs_f64())
}

fn main() {
    let _telemetry =
        alss_telemetry::init("ablation_embedding", alss_bench::telemetry_arg().as_deref());
    let sc = load_scenario("yeast", Semantics::Homomorphism);
    let (train, test) = sc.split(0xAB5);
    let aug = label_augmented_graph(&sc.data);
    println!(
        "== Ablation: embedding method behind LSS-emb (yeast, {} test queries) ==\n",
        test.len()
    );

    let cfg = bench_sketch_config(EncodingKind::Embedding, 0xAB5);
    let prone_cfg = ProneConfig {
        dim: cfg.prone_dim,
        ..Default::default()
    };
    let skipgram = SkipGramConfig {
        dim: cfg.prone_dim,
        epochs: 2,
        ..Default::default()
    };
    let dw = DeepWalkConfig {
        walks_per_node: 5,
        walk_length: 20,
        skipgram,
    };
    let n2v = Node2VecConfig {
        p: 1.0,
        q: 0.5,
        walks_per_node: 5,
        walk_length: 20,
        skipgram,
    };
    let embeddings = [
        ("ProNE", timed(1, |r| prone(&aug.graph, &prone_cfg, r))),
        ("DeepWalk", timed(2, |r| deepwalk(&aug.graph, &dw, r))),
        ("node2vec", timed(3, |r| node2vec(&aug.graph, &n2v, r))),
    ];

    let mut t = TableWriter::new(&["embedding", "pretrain s", "q-error distribution"]);
    for (name, (emb, secs)) in &embeddings {
        let encoder = Encoder::embedding_from(&sc.data, cfg.hops, emb, aug.base);
        let (sketch, _) = LearnedSketch::train_with_encoder(encoder, &train, &cfg);
        let qerror = qerror_cell(&score_sketch(&sketch, &test).pairs());
        t.row(vec![name.to_string(), fnum(*secs), qerror]);
    }
    t.print();
    println!("\nexpected: comparable accuracy across methods with ProNE pre-training fastest —");
    println!("the basis for the paper's choice of ProNE (§6.1).");
}
