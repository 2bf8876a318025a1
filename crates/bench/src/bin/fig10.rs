//! Fig. 10: active-learning strategies on the aids test set — final
//! regression loss, average L1 log-loss vs the un-updated base model
//! (ORI), and per-size error after 2 uncertainty-sampling rounds, for
//! RAN / CON / MAR / ENT / CTC / ENS.
//!
//! Run: `cargo run -p alss-bench --bin fig10 --release`

use alss_bench::scenario::{bench_model_config, bench_train_config, load_scenario};
use alss_bench::table::fnum;
use alss_bench::TableWriter;
use alss_core::encode::EncodingKind;
use alss_core::train::{encode_workload, finetune_model, EncodedItem};
use alss_core::workload::Workload;
use alss_core::{
    active_round, LearnedSketch, LssEnsemble, PoolItem, QErrorStats, SketchConfig, Strategy,
    TrainConfig,
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

fn eval_sketch(sketch: &LearnedSketch, test: &Workload) -> Vec<(f64, f64, usize)> {
    test.queries
        .iter()
        .map(|q| (q.count as f64, sketch.estimate(&q.graph), q.size()))
        .collect()
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

    let cfg = SketchConfig {
        encoding: EncodingKind::Frequency,
        hops: 3,
        model: bench_model_config(),
        train: bench_train_config(),
        prone_dim: 32,
        seed: 0x10,
    };
    let rounds = 2usize;
    let budget = (pool_w.len() / (2 * rounds)).max(2);
    let finetune = TrainConfig {
        epochs: (cfg.train.epochs / 2).max(5),
        ..cfg.train
    };

    // base model (shared starting point for every strategy)
    let (base, _) = LearnedSketch::train(&sc.data, train, &cfg);
    let base_eval = eval_sketch(&base, test);
    let base_pairs: Vec<(f64, f64)> = base_eval.iter().map(|&(c, e, _)| (c, e)).collect();

    let mut summary = TableWriter::new(&["strategy", "test reg-loss", "avg L1 (log10)"]);
    let base_stats = QErrorStats::from_pairs(&base_pairs).expect("non-empty test");
    summary.row(vec![
        "ORI".to_string(),
        fnum(reg_loss(&base_pairs)),
        fnum(base_stats.l1_log),
    ]);

    let mut per_size = TableWriter::new(&["strategy", "size", "q-error distribution"]);
    for size in test.sizes() {
        let pairs: Vec<(f64, f64)> = base_eval
            .iter()
            .filter(|&&(_, _, s)| s == size)
            .map(|&(c, e, _)| (c, e))
            .collect();
        if let Some(st) = QErrorStats::from_pairs(&pairs) {
            per_size.row(vec!["ORI".to_string(), size.to_string(), st.render()]);
        }
    }

    for strategy in Strategy::all() {
        let mut sketch = base.clone();
        let mut items = encode_workload(sketch.encoder(), train);
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
        let eval = eval_sketch(&sketch, test);
        let pairs: Vec<(f64, f64)> = eval.iter().map(|&(c, e, _)| (c, e)).collect();
        let stats = QErrorStats::from_pairs(&pairs).expect("non-empty");
        summary.row(vec![
            strategy.name().to_string(),
            fnum(reg_loss(&pairs)),
            fnum(stats.l1_log),
        ]);
        for size in test.sizes() {
            let sp: Vec<(f64, f64)> = eval
                .iter()
                .filter(|&&(_, _, s)| s == size)
                .map(|&(c, e, _)| (c, e))
                .collect();
            if let Some(st) = QErrorStats::from_pairs(&sp) {
                per_size.row(vec![
                    strategy.name().to_string(),
                    size.to_string(),
                    st.render(),
                ]);
            }
        }
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
            .map(|m| encode_workload(m.encoder(), train))
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
            let mut sel = ens.select_batch(&encoded, budget, &mut rng);
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
        let stats = QErrorStats::from_pairs(&pairs).expect("non-empty");
        summary.row(vec![
            "ENS".to_string(),
            fnum(reg_loss(&pairs)),
            fnum(stats.l1_log),
        ]);
    }

    println!("--- (a)+(b) final test losses ---");
    summary.print();
    println!("\n--- (c) per-size q-error ---");
    per_size.print();
    println!("\nexpected shape (paper): all strategies improve on ORI; ENT/CTC (and costly ENS)");
    println!("beat RAN; CON/MAR lag because adjacent-magnitude posteriors carry little signal.");
}
