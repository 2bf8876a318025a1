//! Fig. 10: active-learning strategies on the aids test set — final
//! regression loss, average L1 log-loss vs the un-updated base model
//! (ORI), and per-size error after 2 uncertainty-sampling rounds, for
//! RAN / CON / MAR / ENT / CTC / ENS.
//!
//! Run: `cargo run -p alss-bench --bin fig10 --release`

use alss_bench::evalkit::{score_sketch, MethodResult};
use alss_bench::scenario::{bench_sketch_config, load_scenario};
use alss_bench::table::fnum;
use alss_bench::TableWriter;
use alss_core::encode::EncodingKind;
use alss_core::train::{encode_workload_with, finetune_model, EncodedItem};
use alss_core::{
    active_round, LearnedSketch, LssEnsemble, Parallelism, PoolItem, QErrorStats, SketchConfig,
    Strategy, TrainConfig,
};
use alss_graph::io::to_text;
use alss_matching::Semantics;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn reg_loss(pairs: &[(f64, f64)]) -> f64 {
    pairs
        .iter()
        .map(|&(c, e)| {
            let d = c.max(1.0).log10() - e.max(1.0).log10();
            d * d
        })
        .sum::<f64>()
        / pairs.len().max(1) as f64
}

/// A strategy's row of the (a)+(b) summary table.
fn summary_row(strategy: &str, pairs: &[(f64, f64)]) -> Vec<String> {
    let stats = QErrorStats::from_pairs(pairs).expect("non-empty test");
    vec![
        strategy.to_string(),
        fnum(reg_loss(pairs)),
        fnum(stats.l1_log),
    ]
}

/// A strategy's rows of the (c) per-size table.
fn per_size_rows(t: &mut TableWriter, strategy: &str, sizes: &[usize], scored: &MethodResult) {
    for &size in sizes {
        if let Some(st) = QErrorStats::from_pairs(&scored.pairs_of_size(size)) {
            t.row(vec![strategy.to_string(), size.to_string(), st.render()]);
        }
    }
}

fn main() {
    let _telemetry = alss_telemetry::init("fig10", alss_bench::telemetry_arg().as_deref());
    let sc = load_scenario("aids", Semantics::Homomorphism);
    let mut rng = SmallRng::seed_from_u64(10);
    let parts = sc
        .workload
        .stratified_multi_split(&[0.6, 0.2, 0.2], &mut rng);
    let (train, pool_w, test) = (&parts[0], &parts[1], &parts[2]);
    println!(
        "== Fig 10 [aids]: AL strategies ({} train / {} pool / {} test) ==\n",
        train.len(),
        pool_w.len(),
        test.len()
    );

    // oracle: look up the pool query's precomputed exact count
    let truth: HashMap<String, u64> = pool_w
        .queries
        .iter()
        .map(|q| (to_text(&q.graph), q.count))
        .collect();
    let oracle = |g: &alss_graph::Graph| truth.get(&to_text(g)).copied();

    let cfg = bench_sketch_config(EncodingKind::Frequency, 0x10);
    let rounds = 2usize;
    let budget = (pool_w.len() / (2 * rounds)).max(2);
    let finetune = TrainConfig {
        epochs: (cfg.train.epochs / 2).max(5),
        ..cfg.train
    };

    // base model (shared starting point for every strategy)
    let (base, _) = LearnedSketch::train(&sc.data, train, &cfg);
    let sizes = test.sizes();
    let base_eval = score_sketch(&base, test);
    let mut summary = TableWriter::new(&["strategy", "test reg-loss", "avg L1 (log10)"]);
    summary.row(summary_row("ORI", &base_eval.pairs()));
    let mut per_size = TableWriter::new(&["strategy", "size", "q-error distribution"]);
    per_size_rows(&mut per_size, "ORI", &sizes, &base_eval);

    for strategy in Strategy::all() {
        let mut sketch = base.clone();
        let mut items = encode_workload_with(sketch.encoder(), train, Parallelism::auto());
        let mut pool: Vec<PoolItem> = pool_w
            .queries
            .iter()
            .map(|q| PoolItem {
                encoded: sketch.encode(&q.graph),
                graph: q.graph.clone(),
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(0x5E1 + strategy as u64);
        for round in 0..rounds {
            active_round(
                &mut sketch,
                &mut items,
                &mut pool,
                oracle,
                strategy,
                budget,
                &finetune,
                round as u64,
                &mut rng,
            );
        }
        let eval = score_sketch(&sketch, test);
        summary.row(summary_row(strategy.name(), &eval.pairs()));
        per_size_rows(&mut per_size, strategy.name(), &sizes, &eval);
    }

    // ENS: committee of 5 models on 80% folds of the training data
    {
        let mut members = Vec::new();
        let mut fold_rng = SmallRng::seed_from_u64(0xE45);
        for k in 0..5u64 {
            let (sub, _) = train.stratified_split(0.8, &mut fold_rng);
            let cfg_k = SketchConfig {
                seed: 0x10 + 1 + k,
                ..cfg
            };
            let (s, _) = LearnedSketch::train_with_encoder(
                LearnedSketch::build_encoder(&sc.data, &cfg_k),
                &sub,
                &cfg_k,
            );
            members.push(s);
        }
        let mut items: Vec<Vec<EncodedItem>> = members
            .iter()
            .map(|m| encode_workload_with(m.encoder(), train, Parallelism::auto()))
            .collect();
        let mut pool: Vec<PoolItem> = pool_w
            .queries
            .iter()
            .map(|q| PoolItem {
                encoded: members[0].encode(&q.graph),
                graph: q.graph.clone(),
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(0xE46);
        for round in 0..rounds {
            let ens = LssEnsemble::new(members.iter().map(|m| m.model().clone()).collect());
            let encoded: Vec<_> = pool.iter().map(|p| p.encoded.clone()).collect();
            let mut sel = ens.select_batch(&encoded, budget, &mut rng, Parallelism::auto());
            sel.sort_unstable_by(|a, b| b.cmp(a));
            for idx in sel {
                let item = pool.swap_remove(idx);
                if let Some(c) = oracle(&item.graph) {
                    for it in items.iter_mut() {
                        it.push((item.encoded.clone(), c));
                    }
                }
            }
            for (m, it) in members.iter_mut().zip(&items) {
                finetune_model(m.model_mut(), it, &finetune, round as u64);
            }
        }
        let ens = LssEnsemble::new(members.iter().map(|m| m.model().clone()).collect());
        let pairs: Vec<(f64, f64)> = test
            .queries
            .iter()
            .map(|q| {
                let eq = members[0].encode(&q.graph);
                (q.count as f64, ens.predict_count(&eq))
            })
            .collect();
        summary.row(summary_row("ENS", &pairs));
    }

    println!("--- (a)+(b) final test losses ---");
    summary.print();
    println!("\n--- (c) per-size q-error ---");
    per_size.print();
    println!("\nexpected shape (paper): all strategies improve on ORI; ENT/CTC (and costly ENS)");
    println!("beat RAN; CON/MAR lag because adjacent-magnitude posteriors carry little signal.");
}
