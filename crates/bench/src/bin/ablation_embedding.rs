//! Ablation: the pre-trained embedding behind LSS-emb — DeepWalk vs
//! node2vec vs ProNE (the paper tried four methods and chose ProNE for
//! its scalability and stable accuracy; §6.1).
//!
//! Run: `cargo run -p alss-bench --bin ablation_embedding --release`

use alss_bench::scenario::{bench_model_config, bench_train_config, load_scenario};
use alss_bench::table::fnum;
use alss_bench::TableWriter;
use alss_core::{Encoder, EncodingKind, LearnedSketch, QErrorStats, SketchConfig};
use alss_embedding::prone::{prone, ProneConfig};
use alss_embedding::skipgram::SkipGramConfig;
use alss_embedding::{deepwalk, node2vec, DeepWalkConfig, Embedding, Node2VecConfig};
use alss_graph::augmented::label_augmented_graph;
use alss_matching::Semantics;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let _telemetry =
        alss_telemetry::init("ablation_embedding", alss_bench::telemetry_arg().as_deref());
    let sc = load_scenario("yeast", Semantics::Homomorphism);
    let mut rng = SmallRng::seed_from_u64(0xAB5);
    let (train, test) = sc.workload.stratified_split(0.8, &mut rng);
    let aug = label_augmented_graph(&sc.data);
    println!(
        "== Ablation: embedding method behind LSS-emb (yeast, {} test queries) ==\n",
        test.len()
    );

    let dim = 32usize;
    let mut embeddings: Vec<(&str, Embedding, f64)> = Vec::new();
    {
        let t0 = Instant::now();
        let mut r = SmallRng::seed_from_u64(1);
        let e = prone(
            &aug.graph,
            &ProneConfig {
                dim,
                ..Default::default()
            },
            &mut r,
        );
        embeddings.push(("ProNE", e, t0.elapsed().as_secs_f64()));
    }
    {
        let t0 = Instant::now();
        let mut r = SmallRng::seed_from_u64(2);
        let e = deepwalk(
            &aug.graph,
            &DeepWalkConfig {
                walks_per_node: 5,
                walk_length: 20,
                skipgram: SkipGramConfig {
                    dim,
                    epochs: 2,
                    ..Default::default()
                },
            },
            &mut r,
        );
        embeddings.push(("DeepWalk", e, t0.elapsed().as_secs_f64()));
    }
    {
        let t0 = Instant::now();
        let mut r = SmallRng::seed_from_u64(3);
        let e = node2vec(
            &aug.graph,
            &Node2VecConfig {
                p: 1.0,
                q: 0.5,
                walks_per_node: 5,
                walk_length: 20,
                skipgram: SkipGramConfig {
                    dim,
                    epochs: 2,
                    ..Default::default()
                },
            },
            &mut r,
        );
        embeddings.push(("node2vec", e, t0.elapsed().as_secs_f64()));
    }

    let mut t = TableWriter::new(&["embedding", "pretrain s", "q-error distribution"]);
    for (name, emb, secs) in &embeddings {
        let encoder = Encoder::embedding_from(&sc.data, 3, emb, aug.base);
        let cfg = SketchConfig {
            encoding: EncodingKind::Embedding,
            hops: 3,
            model: bench_model_config(),
            train: bench_train_config(),
            prone_dim: dim,
            seed: 0xAB5,
        };
        let (sketch, _) = LearnedSketch::train_with_encoder(encoder, &train, &cfg);
        let pairs: Vec<(f64, f64)> = test
            .queries
            .iter()
            .map(|q| (q.count as f64, sketch.estimate(&q.graph)))
            .collect();
        let stats = QErrorStats::from_pairs(&pairs).expect("non-empty");
        t.row(vec![name.to_string(), fnum(*secs), stats.render()]);
    }
    t.print();
    println!("\nexpected: comparable accuracy across methods with ProNE pre-training fastest —");
    println!("the basis for the paper's choice of ProNE (§6.1).");
}
