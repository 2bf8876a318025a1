//! Fig. 11: robustness to workload shifts — LSS (and ALSS with 2 CTC
//! rounds) trained on varying small:large query mixes of the aids pool,
//! evaluated on a fixed test set.
//!
//! Run: `cargo run -p alss-bench --bin fig11 --release`

use alss_bench::evalkit::score_sketch;
use alss_bench::scenario::{bench_sketch_config, load_scenario};
use alss_bench::TableWriter;
use alss_core::encode::EncodingKind;
use alss_core::train::encode_workload_with;
use alss_core::workload::{LabeledQuery, Workload};
use alss_core::{
    active_round, LearnedSketch, Parallelism, PoolItem, QErrorStats, Strategy, TrainConfig,
};
use alss_graph::io::to_text;
use alss_matching::Semantics;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

fn main() {
    let _telemetry = alss_telemetry::init("fig11", alss_bench::telemetry_arg().as_deref());
    let sc = load_scenario("aids", Semantics::Homomorphism);
    let sizes = sc.workload.sizes();
    assert!(sizes.len() >= 2, "need multiple query sizes");
    let mid = sizes.len() / 2;
    let small_sizes: Vec<usize> = sizes[..mid].to_vec();
    let is_small = |q: &LabeledQuery| small_sizes.contains(&q.size());

    // fixed test set: 40% of each size bucket; the rest is the train pool
    let mut rng = SmallRng::seed_from_u64(11);
    let (pool_all, test) = sc.workload.stratified_split(0.6, &mut rng);
    let (mut small, mut large): (Vec<LabeledQuery>, Vec<LabeledQuery>) =
        pool_all.queries.iter().cloned().partition(is_small);
    small.shuffle(&mut rng);
    large.shuffle(&mut rng);

    let total = (small.len() + large.len()).min(2 * small.len().min(large.len()));
    let train_total = (total * 2 / 3).max(8);
    println!(
        "== Fig 11 [aids]: robustness to workload shift (train {} / test {}) ==\n",
        train_total,
        test.len()
    );

    let truth: HashMap<String, u64> = pool_all
        .queries
        .iter()
        .map(|q| (to_text(&q.graph), q.count))
        .collect();

    let mut t = TableWriter::new(&["mix s:l", "model", "size", "q-error distribution"]);
    for (s_part, l_part) in [(2usize, 8usize), (4, 6), (5, 5), (6, 4), (8, 2)] {
        let n_small = (train_total * s_part / 10).min(small.len());
        let n_large = (train_total * l_part / 10).min(large.len());
        let train = Workload::from_queries(
            small[..n_small]
                .iter()
                .chain(&large[..n_large])
                .cloned()
                .collect(),
        );
        // remaining pool queries feed the AL rounds
        let pool_rest: Vec<LabeledQuery> = small[n_small..]
            .iter()
            .chain(&large[n_large..])
            .cloned()
            .collect();

        for enc in [
            EncodingKind::Frequency,
            EncodingKind::Embedding,
            EncodingKind::Concatenated,
        ] {
            let cfg = bench_sketch_config(enc, 0x11);
            let (mut sketch, _) = LearnedSketch::train(&sc.data, &train, &cfg);

            // LSS rows
            let eval = |sk: &LearnedSketch, tag: &str, t: &mut TableWriter| {
                let scored = score_sketch(sk, &test);
                for size in test.sizes() {
                    if let Some(st) = QErrorStats::from_pairs(&scored.pairs_of_size(size)) {
                        t.row(vec![
                            format!("{s_part}:{l_part}"),
                            format!("{}{tag}", enc),
                            size.to_string(),
                            st.render(),
                        ]);
                    }
                }
            };
            eval(&sketch, "", &mut t);

            // ALSS: 2 CTC rounds
            let mut items = encode_workload_with(sketch.encoder(), &train, Parallelism::auto());
            let mut pool: Vec<PoolItem> = pool_rest
                .iter()
                .map(|q| PoolItem {
                    encoded: sketch.encode(&q.graph),
                    graph: q.graph.clone(),
                })
                .collect();
            let budget = (pool.len() / 4).clamp(2, 25);
            let finetune = TrainConfig {
                epochs: (cfg.train.epochs / 2).max(5),
                ..cfg.train
            };
            let mut al_rng = SmallRng::seed_from_u64(0xA1 + s_part as u64);
            for round in 0..2u64 {
                active_round(
                    &mut sketch,
                    &mut items,
                    &mut pool,
                    |g| truth.get(&to_text(g)).copied(),
                    Strategy::CrossTask,
                    budget,
                    &finetune,
                    round,
                    &mut al_rng,
                );
            }
            eval(&sketch, "+AL", &mut t);
        }
    }
    t.print();
    println!("\nexpected shape (paper): q-error fluctuates mainly on small queries and stays");
    println!("within one order (especially LSS-emb); ALSS consistently beats plain LSS.");
}
